"""Lie algebra structure: brackets, gradings, flavors, dilations."""

import random

import pytest
from _reference import bracket, field_pool

from vflie.liealg import AlgebraDescriptor, VFBasis, basis_of_weight, bracket_basis


def _e(k):
    """The one-variable field e_k = z^(k+1) d/dz."""
    return VFBasis((k + 1,), 0)


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
    assert VFBasis((0, 3), 1).weight == 2


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
        uv, vu = bracket(u, v), bracket(v, u)
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
            for f, c in bracket(bracket(x, y), z).items():
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
    # coordinate-sum flavor: one field per coordinate per weight k >= 1, which
    # only the reference numbers; the library enumerates no basis of the sum
    assert [sum(f.weight == w for f in field_pool(ls, 3)) for w in range(0, 4)] == [0, 2, 2, 2]
    with pytest.raises(ValueError, match="coordinate sum"):
        basis_of_weight(ls, 1)


def test_basis_of_weight_is_in_exponent_direction_order():
    # homology numbers fields, and so keys chains, in this order
    for label, alg in (
        ("W:2", AlgebraDescriptor(2, d=0, flavor="W")),
        ("W:3", AlgebraDescriptor(3, d=0, flavor="W")),
        ("L1:2", AlgebraDescriptor(2, d=1, flavor="L")),
        ("L2:3", AlgebraDescriptor(3, d=2, flavor="L")),
    ):
        assert alg.label() == label
        for w in range(alg.min_weight, 5):
            basis = basis_of_weight(alg, w)
            keys = [(f.exponent, f.direction) for f in basis]
            assert keys == sorted(set(keys)), (label, w)
            assert all(f.weight == w for f in basis), (label, w)


def test_contains_and_membership():
    # membership is decided by basis_of_weight alone
    l1 = AlgebraDescriptor(1, d=1, flavor="L")
    assert basis_of_weight(l1, 1) == [_e(1)]
    assert basis_of_weight(l1, 0) == basis_of_weight(l1, -1) == []
    ls = AlgebraDescriptor(2, d=1, flavor="Lsum")
    weight_two = {f for f in field_pool(ls, 2) if f.weight == 2}
    assert weight_two == {VFBasis((3, 0), 0), VFBasis((0, 3), 1)}
    assert VFBasis((2, 1), 0) not in field_pool(ls, 4)
