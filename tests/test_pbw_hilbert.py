"""Associated-graded presentations, module bases, Hilbert series."""

import math
import random
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vflie.exact import Echelon, _poly_mul
from vflie.pbw_hilbert import (
    PolyModulePresentation,
    RationalSeries,
    _cyclotomic,
    _divide,
    _lowest_terms,
    associated_graded_presentation,
    groebner_self_test,
    hilbert_series,
    module_groebner,
    partial_sum_polynomial,
)
from vflie.spanning import spanning_generators
from vflie.tensormod import ModuleDescriptor, graded_dimension


def test_free_rank_one_module():
    desc = ModuleDescriptor(1, (Fraction(0),), (Fraction(1),))
    pres = associated_graded_presentation(desc, [(0,)], 8)
    assert not pres.relations
    series = hilbert_series(module_groebner(pres))
    assert series.to_dict() == {"num": [1], "den": [1, -1]}


def test_rank_two_trivial_parameters():
    desc = ModuleDescriptor(2, (Fraction(0),) * 2, (Fraction(0),) * 2)
    S = [tuple(s) for s in spanning_generators(desc)]
    pres = associated_graded_presentation(desc, S, 10)
    gb = module_groebner(pres)
    assert groebner_self_test(gb)
    series = hilbert_series(gb)
    assert series.to_dict() == {"num": [1], "den": [1, -2, 1]}
    dims = [int(c) for c in series.expand(12)]
    assert dims == [comb(w + 1, 1) for w in range(13)]
    assert list(pres.harvest_ranks) == dims[:11]


def _assert_primitive(relations):
    """Each relation is a nonzero integer vector with content 1 and a
    positive coefficient at its leading term."""
    for rel in relations:
        assert rel and all(type(c) is int for c in rel.values()), rel
        assert math.gcd(*rel.values()) == 1, rel
        assert rel[_lead(rel)] > 0, rel


def test_relations_are_weight_homogeneous():
    # zero parameters, and half-integer ones, whose columns are scaled by 2
    for lam, mu in (((0, 0), (0, 0)), ((Fraction(-1, 2), 0), (Fraction(1, 2), 0))):
        desc = ModuleDescriptor(2, lam, mu)
        S = [tuple(s) for s in spanning_generators(desc)]
        pres = associated_graded_presentation(desc, S, 8)
        gb = module_groebner(pres)
        assert pres.relations and gb.relations
        for rel in pres.relations:
            weights = {pres.generator_weights[pos] + _wdeg(expo) for pos, expo in rel}
            assert len(weights) == 1, rel
        _assert_primitive(pres.relations + gb.relations)


def test_series_matches_module_dimensions_random():
    rng = random.Random(5150)
    for _ in range(3):
        r = rng.randint(1, 2)
        lam = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(r))
        mu = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(r))
        desc = ModuleDescriptor(r, lam, mu)
        S = [tuple(s) for s in spanning_generators(desc)]
        pres = associated_graded_presentation(desc, S, 9)
        gb = module_groebner(pres)
        assert groebner_self_test(gb)
        series = hilbert_series(gb)
        dims = [int(c) for c in series.expand(9)]
        assert dims == [graded_dimension(desc, w) for w in range(10)], (lam, mu)


def test_module_groebner_completes_a_gap():
    rel1 = {(0, (1, 1)): 1}                    # g1 g2
    rel2 = {(0, (2, 0)): 1, (0, (0, 1)): -1}   # g1^2 - g2
    pres = PolyModulePresentation(2, (0,), [rel1, rel2])
    assert not groebner_self_test(pres)
    gb = module_groebner(pres)
    assert groebner_self_test(gb)
    assert len(gb.relations) > 2


def test_module_groebner_minimalization_drops_a_dominated_entry():
    # g1^2 joins the basis first; g1^3 + g1 reduces to g1, which joins after
    # it, and minimalization drops g1^2, whose leading term g1 divides
    rel1 = {(0, (2,)): 1}                  # g1^2
    rel2 = {(0, (3,)): 1, (0, (1,)): 1}    # g1^3 + g1
    gb = module_groebner(PolyModulePresentation(1, (0,), [rel1, rel2]))
    assert gb.relations == [{(0, (1,)): 1}]
    assert hilbert_series(gb).to_dict() == {"num": [1], "den": [1]}


def test_rational_series_expand():
    series = RationalSeries([0, 2], [1, -1])
    # 2t/(1-t) = 2t + 2t^2 + ...
    dims = series.expand(5)
    assert dims == [0, 2, 2, 2, 2, 2]
    assert all(type(c) is int for c in dims)
    # the series has integer coefficients only over a denominator with
    # constant term 1, which every producer builds
    for den in ([2, -1], [-1, 1], [0, 1], []):
        with pytest.raises(ValueError):
            RationalSeries([1], den).expand(3)


_T = sympy.Symbol("t")


def _ascending(expr):
    """Ascending coefficients of a polynomial expression in t."""
    return list(reversed(sympy.Poly(expr, _T).all_coeffs()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-5, 5), max_size=4),
    st.sampled_from((-3, -1, 1, 2)),
    st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    st.booleans(),
)
def test_divide_matches_sympy_remainder(b_mid, b_last, q, exact):
    # b has constant term 1 and a nonzero last coefficient; a is a random
    # list or a multiple of b
    b = [1] + b_mid + [b_last]
    a = _poly_mul(q, b) if exact else q
    quo, rem = sympy.Poly(list(reversed(a)), _T).div(sympy.Poly(list(reversed(b)), _T))
    got = _divide(a, b)
    assert (got is None) == (not rem.is_zero)
    if got is not None:
        assert sympy.Poly(list(reversed(got)), _T) == quo


def test_cyclotomic_matches_sympy():
    for d in range(1, 31):
        expected = _ascending(sympy.cyclotomic_poly(d, _T))
        if expected[0] < 0:
            expected = [-c for c in expected]
        assert list(_cyclotomic(d)) == expected, d


def test_lowest_terms_matches_sympy_cancel():
    rng = random.Random(1729)
    cancelled = 0
    for k in range(300):
        r = rng.randint(0, 6)
        if k % 30 == 0:
            num = [0]
        else:
            num = [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))]
            num.append(rng.choice((-2, -1, 1, 3)))  # no trailing zero
            # cyclotomic factors, some of them in the denominator, some repeated
            for _ in range(rng.randint(0, 5)):
                num = _poly_mul(num, _cyclotomic(rng.randint(1, 8)))
        den = sympy.Poly(sympy.prod([1 - _T**i for i in range(1, r + 1)]), _T)
        p, q = sympy.Poly(list(reversed(num)), _T).cancel(den, include=True)
        # scale sympy's pair so that the denominator has constant term 1
        scale = q.eval(0)
        expected = ([c / scale for c in _ascending(p)], [c / scale for c in _ascending(q)])
        got = _lowest_terms(num, r)
        assert got == expected, (num, r)
        assert all(type(c) is int for c in got[0] + got[1])
        cancelled += len(got[1]) < r * (r + 1) // 2 + 1
    assert cancelled > 100  # the cases really exercise cancellation


def test_partial_sum_polynomial_geometric():
    series = RationalSeries([1], [1, -1])
    coeffs, degree, lead = partial_sum_polynomial(series, 12)
    # partial sums of 1, 1, 1, ... are w + 1
    assert degree == 1 and lead == 1
    assert coeffs == [Fraction(1), Fraction(1)]


def test_partial_sum_polynomial_quadratic():
    series = RationalSeries([1], [1, -2, 1])
    coeffs, degree, lead = partial_sum_polynomial(series, 12)
    # partial sums of w + 1 are (w + 1)(w + 2)/2: degree 2, lead 1/2, 2! * 1/2 = 1
    assert degree == 2 and lead == 1
    assert coeffs == [Fraction(1), Fraction(3, 2), Fraction(1, 2)]


def test_partial_sum_scaled_leading():
    series = RationalSeries([0, 2], [1, -1])
    coeffs, degree, lead = partial_sum_polynomial(series, 12)
    # partial sums of 0, 2, 2, ... are 2w: degree 1, normalized lead 2
    assert degree == 1 and lead == 2


def test_partial_sum_window_too_small():
    series = RationalSeries([1], [1, -1])
    with pytest.raises(ValueError):
        partial_sum_polynomial(series, 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=5),
    st.one_of(
        st.integers(0, 3).map(lambda k: [comb(k, i) * (-1) ** i for i in range(k + 1)]),
        st.lists(st.integers(-2, 2), max_size=3).map(lambda tail: [1] + tail),
    ),
    st.integers(0, 20),
)
def test_partial_sum_polynomial_fits_the_window_tail(num, den, window):
    # the returned polynomial is the partial sum at every n from
    # x0 = window - degree - 3 to the window
    series = RationalSeries(num, den)
    try:
        coeffs, degree, lead = partial_sum_polynomial(series, window)
    except ValueError:
        return
    sums = [sum(series.expand(n)) for n in range(window + 1)]
    for n in range(window - degree - 3, window + 1):
        assert sum(c * n**k for k, c in enumerate(coeffs)) == sums[n]
    assert len(coeffs) == degree + 1 and coeffs[degree] * math.factorial(degree) == lead


def _monomials(n, r):
    """Exponent tuples of weighted degree n in g_1..g_r, deg g_i = i."""
    if r == 0:
        return [()] if n == 0 else []
    return [
        expo + (a,) for a in range(n // r + 1) for expo in _monomials(n - a * r, r - 1)
    ]


def _wdeg(expo):
    return sum((i + 1) * a for i, a in enumerate(expo))


def _random_presentation(rng):
    """A homogeneous presentation with 1-3 generator slots over k[g_1..g_r],
    r <= 3, small integer coefficients, and some relations that are
    combinations of g-multiples of earlier ones."""
    r = rng.randint(1, 3)
    gen_weights = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
    relations = []
    count = rng.randint(1, 5)
    while len(relations) < count:
        d = rng.randint(max(gen_weights) + 1, max(gen_weights) + 4)
        rel = {}
        for j, gw in enumerate(gen_weights):
            monos = _monomials(d - gw, r)
            for expo in rng.sample(monos, min(len(monos), rng.randint(0, 2))):
                rel[j, expo] = rng.choice([-3, -2, -1, 1, 2, 3])
        if rel:
            relations.append((d, rel))
    for _ in range(rng.randint(0, 3)):
        (d1, rel1), (d2, rel2) = rng.choice(relations), rng.choice(relations)
        d = max(d1, d2) + rng.randint(0, 2)
        combo = {}
        for dk, relk in ((d1, rel1), (d2, rel2)):
            b, c = rng.choice(_monomials(d - dk, r)), rng.randint(-2, 2)
            for (j, e), x in relk.items():
                key = (j, tuple(p + q for p, q in zip(e, b)))
                combo[key] = combo.get(key, 0) + c * x
        relations.append((d, {k: x for k, x in combo.items() if x}))
    return PolyModulePresentation(r, gen_weights, [rel for _, rel in relations])


def _brute_force_dims(pres, upto):
    """dim (F/R)_w for w <= upto: the free count minus the rank of all
    g^b * R at weight w, by exact elimination."""
    r = pres.r
    dims = []
    for w in range(upto + 1):
        free = sum(len(_monomials(w - gw, r)) for gw in pres.generator_weights if gw <= w)
        ech = Echelon()
        for rel in pres.relations:
            if not rel:
                continue
            j, expo = next(iter(rel))
            d = pres.generator_weights[j] + _wdeg(expo)
            if d > w:
                continue
            for b in _monomials(w - d, r):
                ech.insert({(k, tuple(x + y for x, y in zip(e, b))): c for (k, e), c in rel.items()})
        dims.append(free - ech.rank)
    return dims


def _lead(rel):
    """(position, exponent) of the largest term: earlier positions first,
    then weighted degree, then lex."""
    return max(rel, key=lambda t: (-t[0], _wdeg(t[1]), t[1]))


def _as_data(pres):
    return [sorted(rel.items()) for rel in pres.relations]


def test_module_groebner_oracle_random():
    rng = random.Random(20261018)
    upto = 8
    for _ in range(40):
        pres = _random_presentation(rng)
        gb = module_groebner(pres)
        assert groebner_self_test(gb)
        _assert_primitive(gb.relations)
        dims = [int(c) for c in hilbert_series(gb).expand(upto)]
        assert dims == _brute_force_dims(pres, upto), _as_data(pres)
        # reduced: no term of an element is divisible by another's leading term
        leads = [_lead(rel) for rel in gb.relations]
        for k, rel in enumerate(gb.relations):
            for j, expo in rel:
                for m, (lj, le) in enumerate(leads):
                    if m != k and lj == j:
                        assert not all(a <= b for a, b in zip(le, expo)), _as_data(gb)
        shuffled = list(pres.relations)
        rng.shuffle(shuffled)
        again = module_groebner(PolyModulePresentation(pres.r, pres.generator_weights, shuffled))
        assert _as_data(again) == _as_data(gb)
        # the same relations scaled by nonzero rationals give the same basis
        scaled = []
        for rel in pres.relations:
            q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            scaled.append({k: q * c for k, c in rel.items()})
        again = module_groebner(PolyModulePresentation(pres.r, pres.generator_weights, scaled))
        assert _as_data(again) == _as_data(gb)
