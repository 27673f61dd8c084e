"""Lie algebra structure: brackets, gradings, flavors, dilations."""

import random

import pytest
from _reference import field_pool

from vflie.liealg import (
    AlgebraDescriptor,
    VFBasis,
    basis_of_weight,
    bracket_basis,
    coordinate_e,
)


def _e(k):
    """The one-variable field e_k = z^(k+1) d/dz."""
    return coordinate_e(k, 0, 1)


def _bracket(u, v):
    """[u, v] of {VFBasis: int} combinations, bilinear over bracket_basis."""
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            for f, c in bracket_basis(a, b):
                out[f] = out.get(f, 0) + ca * cb * c
    return {f: c for f, c in out.items() if c}


def _combination(rng, pool, terms, span):
    return {rng.choice(pool): rng.randint(-span, span) for _ in range(terms)}


def test_one_variable_bracket():
    # [e_k, e_m] = (m - k) e_(k+m)
    for k in range(-1, 5):
        for m in range(-1, 5):
            out = bracket_basis(_e(k), _e(m))
            expect = [] if m == k else [(_e(k + m), m - k)]
            assert list(out) == expect


def test_basis_weights():
    assert _e(3).weight == 3
    b = VFBasis((2, 1), 0)
    assert b.weight == 2
    assert coordinate_e(2, 1, 2).weight == 2


def test_bracket_weight_additive():
    rng = random.Random(31)
    for _ in range(30):
        wa = rng.randint(-1, 3)
        wb = rng.randint(-1, 3)
        alg = AlgebraDescriptor(2, d=0, flavor="W")
        for u in basis_of_weight(alg, wa):
            for v in basis_of_weight(alg, wb):
                for basis, _coeff in bracket_basis(u, v):
                    assert basis.weight == wa + wb


def test_bracket_antisymmetry():
    rng = random.Random(17)
    alg = AlgebraDescriptor(2, d=0, flavor="W")
    pool = field_pool(alg, 3)
    for _ in range(40):
        u = _combination(rng, pool, 2, 3)
        v = _combination(rng, pool, 2, 3)
        uv, vu = _bracket(u, v), _bracket(v, u)
        assert uv == {f: -c for f, c in vu.items()}
    for a in pool:
        assert bracket_basis(a, a) == ()


def test_jacobi_random_w3():
    rng = random.Random(53)
    alg = AlgebraDescriptor(3, d=0, flavor="W")
    pool = field_pool(alg, 2)
    for _ in range(25):
        u, v, w = (_combination(rng, pool, 2, 2) for _ in range(3))
        total = {}
        for x, y, z in ((u, v, w), (v, w, u), (w, u, v)):
            for f, c in _bracket(_bracket(x, y), z).items():
                total[f] = total.get(f, 0) + c
        assert not any(total.values()), (u, v, w)


def test_dilation_embedding_is_a_morphism():
    # e_k -> e_(dk)/d embeds L_1(1) into L_d(1): [e_dk, e_dm] = d (m - k) e_(d(k+m))
    for d in range(1, 5):
        for k in range(1, 7):
            for m in range(1, 7):
                expect = [] if m == k else [(_e(d * (k + m)), d * (m - k))]
                assert list(bracket_basis(_e(d * k), _e(d * m))) == expect, (k, m, d)


def test_algebra_descriptor_flavors():
    w = AlgebraDescriptor(2, d=0, flavor="W")
    assert w.min_weight == -1 and w.label() == "W:2"
    l3 = AlgebraDescriptor(1, d=3, flavor="L")
    assert l3.min_weight == 3 and l3.label() == "L3:1"
    ls = AlgebraDescriptor(2, d=1, flavor="Lsum")
    assert ls.min_weight == 1 and ls.label() == "Lsum:2"
    with pytest.raises(ValueError):
        AlgebraDescriptor(1, d=0, flavor="L")
    with pytest.raises(ValueError):
        AlgebraDescriptor(1, d=2, flavor="W")
    with pytest.raises(ValueError):
        AlgebraDescriptor(2, d=2, flavor="Lsum")


def test_basis_of_weight_dimensions():
    w2 = AlgebraDescriptor(2, d=0, flavor="W")
    # weight w fields are (degree w+1 monomials) x (2 directions)
    for w in range(-1, 5):
        assert len(basis_of_weight(w2, w)) == 2 * (w + 2)
    l2 = AlgebraDescriptor(1, d=2, flavor="L")
    assert [len(basis_of_weight(l2, w)) for w in range(0, 5)] == [0, 0, 1, 1, 1]
    ls = AlgebraDescriptor(2, d=1, flavor="Lsum")
    # coordinate-sum flavor: one field per coordinate per weight k >= 1
    assert [len(basis_of_weight(ls, w)) for w in range(0, 4)] == [0, 2, 2, 2]


def test_contains_and_membership():
    # membership is decided by basis_of_weight alone
    l1 = AlgebraDescriptor(1, d=1, flavor="L")
    assert basis_of_weight(l1, 1) == [_e(1)]
    assert basis_of_weight(l1, 0) == basis_of_weight(l1, -1) == []
    ls = AlgebraDescriptor(2, d=1, flavor="Lsum")
    assert set(basis_of_weight(ls, 2)) == {coordinate_e(2, 0, 2), coordinate_e(2, 1, 2)}
    assert VFBasis((2, 1), 0) not in field_pool(ls, 4)
