"""Tensor modules: actions, words, shifts, weight supports."""

import math
import random
from fractions import Fraction
from math import comb

import pytest
from _reference import weyl_dim

from vflie._enum import bounded_tails, weighted_vectors
from vflie.tensormod import (
    ModuleDescriptor,
    ModuleElement,
    _act_int,
    _letter_constants,
    act_e,
    decompose_coinduced,
    graded_dimension,
    weight_support,
    word_vectors,
)


def _rand_rat(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def _monomial(desc, expo, coeff=1):
    return ModuleElement(desc, {tuple(expo): coeff})


def test_act_e_formula():
    # e_k z^a = sum_i (a_i + mu_i + (k+1) lam_i) z_i^k z^a
    desc = ModuleDescriptor(2, (Fraction(1, 2), Fraction(0)), (Fraction(1), Fraction(-2)))
    m = _monomial(desc, (1, 3))
    out = act_e(2, m)
    # i = 0: 1 + 1 + 3/2 = 7/2 on z1^2 z^(1,3); i = 1: 3 - 2 + 0 = 1
    assert out.terms == {(3, 3): Fraction(7, 2), (1, 5): Fraction(1)}


def test_module_element_validates_exponents():
    desc = ModuleDescriptor(2, (0, 0), (0, 0))
    assert ModuleElement(desc, {(1, 0): 2, (0, 1): 0}).terms == {(1, 0): 2}
    for bad in ((1,), (1, -1)):
        with pytest.raises(ValueError):
            ModuleElement(desc, {bad: 1})


def test_act_word_normal_order():
    # e_1 e_2 applied rightmost-first to the vacuum of T^1_(0, 5), on the
    # integer kernel (den = 1) and on the Fraction reference
    desc = ModuleDescriptor(1, (Fraction(0),), (Fraction(5),))
    den, bases = _letter_constants(desc, 2)
    vec = _act_int(_act_int({(0,): 1}, 2, den, bases[1]), 1, den, bases[0])
    assert vec == {(3,): 35}
    assert act_e(1, act_e(2, _monomial(desc, (0,)))).terms == {(3,): 35}


def test_act_word_order_matters():
    # the two orders differ by [e_1, e_2] = e_3
    desc = ModuleDescriptor(1, (Fraction(0),), (Fraction(5),))
    m = _monomial(desc, (0,))
    e2_first = act_e(1, act_e(2, m)).terms
    e1_first = act_e(2, act_e(1, m)).terms
    assert e2_first != e1_first
    assert {e: c - e1_first.get(e, 0) for e, c in e2_first.items()} == act_e(3, m).terms


def _fraction_word(m, b, d):
    """e_d^(b_1) ... e_rd^(b_r) m one Fraction act_e at a time."""
    for k in range(len(b), 0, -1):
        for _ in range(b[k - 1]):
            m = act_e(k * d, m)
    return m.terms


def test_word_vectors_match_fraction_route():
    rng = random.Random(2024)
    for trial in range(24):
        r = rng.randint(1, 4)
        w = rng.randint(0, 7)
        d = rng.choice((1, 2))
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        desc = ModuleDescriptor(r, lam, mu)
        den = math.lcm(*(x.denominator for x in lam + mu))
        if trial % 2:
            sources = [tuple(rng.randint(0, 3) for _ in range(r)) for _ in range(3)]
            got = word_vectors(desc, sources, w, d)
        else:
            sources = [a for j in range(w + 1) for a in bounded_tails(r, j)]
            got = word_vectors(desc, None, w, d)
        expected_labels = [
            (a, b)
            for a in sources
            if sum(a) <= w and (w - sum(a)) % d == 0
            for b in weighted_vectors(r, (w - sum(a)) // d)
        ]
        assert [label for label, _ in got] == expected_labels
        for (a, b), vec in got:
            assert all(type(c) is int and c for c in vec.values())
            scale = den ** sum(b)
            exact = _fraction_word(_monomial(desc, a), b, d)
            assert vec == {e: c * scale for e, c in exact.items()}, (desc, a, b, d)


def test_act_word_fractional_element():
    # the integer kernel on q * m, q clearing the coefficients of m, is
    # q * den**length times the Fraction word on m
    rng = random.Random(99)
    for _ in range(10):
        r = rng.randint(1, 3)
        desc = ModuleDescriptor(
            r, tuple(_rand_rat(rng) for _ in range(r)), tuple(_rand_rat(rng) for _ in range(r))
        )
        m = ModuleElement(desc, {(1,) * r: _rand_rat(rng), (0,) * r: _rand_rat(rng)})
        rho = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        den, bases = _letter_constants(desc, len(rho))
        q = math.lcm(*(c.denominator for c in m.terms.values()))
        vec = {e: int(c * q) for e, c in m.terms.items()}
        for k in range(len(rho), 0, -1):
            for _ in range(rho[k - 1]):
                vec = _act_int(vec, k, den, bases[k - 1])
        scale = q * den ** sum(rho)
        assert vec == {e: c * scale for e, c in _fraction_word(m, rho, 1).items()}


def _module_axiom_holds(desc, expo, k, m):
    """A_k A_m - A_m A_k = den (m - k) A_(k+m) on z^expo, with A_j = den e_j
    the integer kernel _act_int: the module axiom e_k e_m - e_m e_k =
    [e_k, e_m] = (m - k) e_(k+m), scaled by den**2."""
    den, bases = _letter_constants(desc, k + m)

    def act(j, vec):
        return _act_int(vec, j, den, bases[j - 1])

    vec = {tuple(expo): 1}
    lhs = dict(act(k, act(m, vec)))
    for e, c in act(m, act(k, vec)).items():
        lhs[e] = lhs.get(e, 0) - c
    rhs = {e: den * (m - k) * c for e, c in act(k + m, vec).items()}
    return {e: c for e, c in lhs.items() if c} == {e: c for e, c in rhs.items() if c}


def test_module_axiom_random():
    rng = random.Random(401)
    for _ in range(30):
        r = rng.randint(1, 3)
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        desc = ModuleDescriptor(r, lam, mu)
        expo = tuple(rng.randint(0, 2) for _ in range(r))
        k, m = rng.randint(1, 4), rng.randint(1, 4)
        assert _module_axiom_holds(desc, expo, k, m), (desc, expo, k, m)


def test_shift_embed_intertwines():
    # z^a -> z^(a+N) embeds T^r_(lam, mu + N) in T^r_(lam, mu), commuting
    # with every e_k; spanning_generators builds on this copy
    rng = random.Random(77)
    for _ in range(10):
        r = rng.randint(1, 3)
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        N = tuple(rng.randint(0, 3) for _ in range(r))
        parent = ModuleDescriptor(r, lam, mu)
        sub = ModuleDescriptor(r, lam, tuple(m + n for m, n in zip(mu, N)))

        def embed(terms):
            return {tuple(a + n for a, n in zip(e, N)): c for e, c in terms.items()}

        m = _monomial(sub, tuple(rng.randint(0, 2) for _ in range(r)))
        k = rng.randint(1, 4)
        left = embed(act_e(k, m).terms)
        right = act_e(k, ModuleElement(parent, embed(m.terms))).terms
        assert left == right


def test_graded_dimension():
    desc = ModuleDescriptor(3, (Fraction(0),) * 3, (Fraction(0),) * 3)
    for w in range(8):
        assert graded_dimension(desc, w) == comb(w + 2, 2)


def test_descriptor_serialization():
    desc = ModuleDescriptor(2, (Fraction(1, 2), Fraction(0)), (Fraction(-1), Fraction(3)))
    assert desc.to_dict() == {"r": 2, "lambda": ["1/2", "0"], "mu": ["-1", "3"]}


def test_weight_support_gl2():
    support = weight_support((2, 1), 2)
    assert [(tuple(wv.alpha), wv.multiplicity) for wv in support] == [
        ((2, 1), 1),
        ((1, 2), 1),
    ]
    assert sum(wv.multiplicity for wv in support) == weyl_dim((2, 1))


def test_weight_support_gl3_adjoint_like():
    support = weight_support((2, 1, 0), 3)
    total = sum(wv.multiplicity for wv in support)
    assert total == weyl_dim((2, 1, 0)) == 8
    mults = {tuple(wv.alpha): wv.multiplicity for wv in support}
    assert mults[(1, 1, 1)] == 2  # the zero-ish weight space of the adjoint
    assert mults[(2, 1, 0)] == 1


def test_weight_support_totals_weyl():
    for n in (2, 3):
        lams = []
        if n == 2:
            lams = [(a, b) for a in range(4) for b in range(a + 1)]
        else:
            lams = [
                (a, b, c)
                for a in range(4)
                for b in range(a + 1)
                for c in range(b + 1)
            ]
        for lam in lams:
            support = weight_support(lam, n)
            assert sum(wv.multiplicity for wv in support) == weyl_dim(lam), lam


def test_weight_support_rejects_non_dominant():
    with pytest.raises(ValueError):
        weight_support((1, 2), 2)


def test_decompose_coinduced_dimensions():
    for lam in [(1, 0), (2, 1), (2, 0), (3, 1, 0)]:
        n = len(lam)
        modules = decompose_coinduced(lam, n)
        assert sum(m for _d, m in modules) == weyl_dim(lam)
        for w in range(7):
            total = sum(m * graded_dimension(d, w) for d, m in modules)
            assert total == weyl_dim(lam) * comb(w + n - 1, n - 1)
