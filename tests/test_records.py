"""Value records: equality and hashing by value, validation in the
constructor, and no ``dataclasses`` import behind them."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from vflie import homology
from vflie.liealg import AlgebraDescriptor, VFBasis
from vflie.pbw_hilbert import PolyModulePresentation, RationalSeries
from vflie.spanning import GeneratorSet
from vflie.tensormod import ModuleDescriptor, WeightVector, weight_support


def test_frozen_records_are_values():
    pairs = [
        (VFBasis((1, 2), 0), VFBasis((1, 2), 0), VFBasis((1, 2), 1)),
        (AlgebraDescriptor(2, d=1), AlgebraDescriptor(2, 1, "L"), AlgebraDescriptor(2, 2)),
        (
            ModuleDescriptor(2, (1, Fraction(1, 2)), [0, 0]),
            ModuleDescriptor(2, (Fraction(1), Fraction(1, 2)), (0, 0)),
            ModuleDescriptor(2, (1, Fraction(1, 2)), (0, 1)),
        ),
        (WeightVector((1, 0), 2), WeightVector((1, 0), 2), WeightVector((1, 0), 1)),
        (GeneratorSet([(1, 0), (0, 1)]), GeneratorSet(((0, 1), (1, 0))), GeneratorSet([(0, 1)])),
    ]
    for a, same, other in pairs:
        assert a == same and hash(a) == hash(same) and a != other
        assert {a: 1}[same] == 1 and len({a, same, other}) == 2
        with pytest.raises(AttributeError):
            a.foo = 1
    desc = pairs[2][0]
    assert desc.lam == (Fraction(1), Fraction(1, 2)) and desc.mu == (Fraction(0),) * 2
    assert desc.den == 2 and desc.to_dict() == {"r": 2, "lambda": ["1", "1/2"], "mu": ["0", "0"]}
    gens = pairs[4][0]
    assert len(gens) == 2 and list(gens) == [(0, 1), (1, 0)]
    assert VFBasis((2, 0), 1).n == 2 and VFBasis((2, 0), 1).weight == 1
    assert AlgebraDescriptor(3, 0, "W").min_weight == -1 and AlgebraDescriptor(3, 0, "W").label() == "W:3"
    assert weight_support((1, 0), 2)[0] == WeightVector((1, 0), 1)


def test_records_as_cache_keys():
    # the descriptors key lru_cache entries and the Kuenneth factor tables
    calls = []

    @lru_cache(maxsize=None)
    def cached(desc):
        calls.append(desc)
        return desc.den

    assert cached(ModuleDescriptor(1, (Fraction(1, 3),), (0,))) == 3
    assert cached(ModuleDescriptor(1, [Fraction(2, 6)], [Fraction(0)])) == 3
    assert len(calls) == 1
    tables = []
    real = homology.homology_table

    def counting(alg, desc, *args):
        tables.append(desc)
        return real(alg, desc, *args)

    homology.homology_table = counting
    try:
        lsum = AlgebraDescriptor(3, d=1, flavor="Lsum")
        equal = ModuleDescriptor(3, (Fraction(1, 2),) * 3, (0, 0, 0))
        real(lsum, equal, 2, 3)
    finally:
        homology.homology_table = real
    assert tables == [ModuleDescriptor(1, (Fraction(1, 2),), (0,))]


def test_record_validation_messages():
    cases = [
        (lambda: VFBasis((1, -1), 0), "negative exponent in (1, -1)"),
        (lambda: VFBasis((1, 1), 2), "direction out of range"),
        (lambda: AlgebraDescriptor(0), "need at least one variable"),
        (lambda: AlgebraDescriptor(2, 1, "W"), "W flavor carries no vanishing order"),
        (lambda: AlgebraDescriptor(2, 0, "L"), "L flavor requires d >= 1"),
        (lambda: AlgebraDescriptor(2, 2, "Lsum"), "coordinate-sum flavor is built from L_1's"),
        (lambda: AlgebraDescriptor(2, 1, "X"), "unknown flavor 'X'"),
        (lambda: ModuleDescriptor(-1, (), ()), "rank must be >= 0"),
        (lambda: ModuleDescriptor(2, (0,), (0, 0)), "parameter vectors must have length r"),
    ]
    for make, text in cases:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == text


def test_mutable_records_compare_by_value():
    series = RationalSeries([1], [1, -1])
    assert series == RationalSeries([1], [1, -1]) != RationalSeries([1], [1, -2, 1])
    series.num = [2]
    assert series.expand(2) == [2, 2, 2]
    pres = PolyModulePresentation(1, (0,), [{(0, (1,)): 1}])
    assert pres.harvest_ranks == () and pres == PolyModulePresentation(1, (0,), [{(0, (1,)): 1}])
    pres.relations.append({(0, (2,)): 1})
    assert pres != PolyModulePresentation(1, (0,), [{(0, (1,)): 1}])
    with pytest.raises(TypeError):
        hash(series)


def test_cli_import_leaves_out_dataclasses():
    # a fresh interpreter without site customisation: importing the program
    # must not pull in dataclasses or inspect, a fixed cost of every job
    src = os.path.dirname(os.path.dirname(os.path.abspath(homology.__file__)))
    code = "import sys, vflie.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "[]\n"
