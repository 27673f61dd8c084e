"""Substitution-closed polynomial spaces."""

import random
from fractions import Fraction

import pytest

from vflie.exact import Echelon, MPoly
from vflie.specht import (
    closure_basis,
    homogeneous_split,
    substitute,
    tspace_series,
    variables_tuple,
)
from vflie.tensormod import ModuleDescriptor, ModuleElement, act_e

T = ("t",)
X1 = ("x1",)


def _t_poly(coeffs):
    return MPoly(T, {(k,): Fraction(c) for k, c in coeffs.items() if c})


def test_substitute_requires_vanishing_at_zero():
    f = MPoly.variable(X1, "x1")
    with pytest.raises(ValueError):
        substitute(f, _t_poly({0: 1, 1: 1}))


def test_substitute_composes():
    rng = random.Random(13)
    variables = variables_tuple(2)
    for _ in range(10):
        f = MPoly(
            variables,
            {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
                for _ in range(3)
            },
        )
        p = _t_poly({k: rng.randint(-2, 2) for k in range(1, 4)})
        q = _t_poly({k: rng.randint(-2, 2) for k in range(1, 4)})
        if p.is_zero() or q.is_zero():
            continue
        pq = p.subs_polys({"t": q})  # p after q, i.e. p(q(t))
        assert substitute(substitute(f, p), q) == substitute(f, pq)


def test_homogeneous_split_matches_term_grouping():
    rng = random.Random(29)
    variables = variables_tuple(3)
    for _ in range(10):
        f = MPoly(
            variables,
            {
                tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-4, 4))
                for _ in range(4)
            },
        )
        split = homogeneous_split(f)
        direct = {}
        for expo, coeff in f.terms.items():
            d = sum(expo)
            direct.setdefault(d, {})[expo] = coeff
        assert set(split) == set(direct)
        for d, comp in split.items():
            assert comp == MPoly(variables, direct[d])


def test_closure_of_a_single_variable():
    ts = closure_basis([MPoly.variable(X1, "x1")], 12)
    assert ts.dimensions() == [0] + [1] * 12
    fit = tspace_series(ts)
    assert not fit["inconclusive"]
    assert fit["num"] == [0, 1] and fit["den"] == [1, -1]
    assert ts.contains(MPoly(X1, {(7,): Fraction(3)}))
    assert not ts.contains(MPoly.constant(X1, 1) + MPoly.variable(X1, "x1"))


def test_closure_membership_under_substitution():
    variables = variables_tuple(2)
    f = MPoly(variables, {(1, 1): Fraction(1)})
    ts = closure_basis([f], 10)
    rng = random.Random(7)
    for _ in range(20):
        p = _t_poly({k: rng.randint(-3, 3) for k in range(1, 4)})
        if p.is_zero():
            continue
        w = rng.choice([w for w in range(1, 6) if ts.graded_basis.get(w)])
        g = rng.choice(ts.graded_basis[w])
        for d, comp in homogeneous_split(substitute(g, p)).items():
            if d <= ts.cutoff:
                assert ts.contains(comp), (str(p), w, d)


def test_closure_agrees_with_module_route():
    """Ladder saturation inside the polynomial ring must match the diagonal
    tensor-module action on exponent vectors: the same dimensions, and every
    module-route basis element in the closure, so the spans agree.  The
    fractional draws check that the closure scales each seed component to
    integers as a whole."""
    rng = random.Random(333)
    draws = (
        lambda: Fraction(rng.randint(-3, 3)),
        lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    )
    for coeff in draws:
        for _ in range(5):
            n = rng.randint(1, 3)
            variables = variables_tuple(n)
            gens = []
            for _g in range(rng.randint(1, 2)):
                terms = {}
                for _t in range(rng.randint(1, 3)):
                    expo = tuple(rng.randint(0, 2) for _ in range(n))
                    if sum(expo) == 0:
                        continue
                    terms[expo] = coeff()
                if terms:
                    gens.append(MPoly(variables, terms))
            if gens:
                _assert_module_route_agrees(gens, n)
    # the closure is the line through (1/2) x1^w + (1/3) x2^w at each weight,
    # which holds the exact ratio only
    half_third = MPoly(variables_tuple(2), {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    _assert_module_route_agrees([half_third], 2)


def _assert_module_route_agrees(gens, n, cutoff=8):
    ts = closure_basis(gens, cutoff)
    basis = _module_route_basis(gens, n, cutoff)
    assert ts.dimensions() == [len(basis.get(w, ())) for w in range(cutoff + 1)]
    for elements in basis.values():
        for m in elements:
            assert ts.contains(MPoly(ts.variables, m.terms))


def _module_route_basis(gens, n, cutoff):
    desc = ModuleDescriptor(n, (Fraction(0),) * n, (Fraction(0),) * n)
    seeds = {}
    for g in gens:
        for d, comp in homogeneous_split(g).items():
            if d <= cutoff:
                seeds.setdefault(d, []).append(ModuleElement(desc, dict(comp.terms)))
    basis, ech, idx = {}, {}, {}

    def admit(w, m):
        if not m.terms:
            return False
        e = ech.setdefault(w, Echelon())
        ix = idx.setdefault(w, {})
        vec = {ix.setdefault(t, len(ix)): c for t, c in m.terms.items()}
        if e.insert(vec) is not None:
            return False
        basis.setdefault(w, []).append(m)
        return True

    for w in range(cutoff + 1):
        for m in seeds.get(w, ()):
            admit(w, m)
        for k in range(1, w + 1):
            for m in basis.get(w - k, []):
                admit(w, act_e(k, m))
    return basis


def test_series_fit_two_variables():
    variables = variables_tuple(2)
    ts = closure_basis([MPoly(variables, {(1, 1): Fraction(1)})], 10)
    fit = tspace_series(ts)
    assert not fit["inconclusive"]
    assert fit["num"] == [0, 0, 1]
    assert fit["den"] == [1, -1, -1, 1]  # (1 - t)(1 - t^2)


def test_series_fit_can_be_inconclusive():
    variables = variables_tuple(3)
    gens = [
        MPoly(variables, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-2)}),
        MPoly(variables, {(1, 1, 1): Fraction(3, 2)}),
    ]
    fit = tspace_series(closure_basis(gens, 8))
    assert fit["inconclusive"]
    assert "num" not in fit


def test_dimension_range_checks():
    ts = closure_basis([MPoly.variable(X1, "x1")], 6)
    with pytest.raises(ValueError):
        ts.dimension(7)
    with pytest.raises(ValueError):
        ts.contains(MPoly(X1, {(9,): Fraction(1)}))
