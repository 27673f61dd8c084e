"""Substitution-closed polynomial spaces."""

import random
from fractions import Fraction

import pytest
import sympy
from _reference import in_span, module_route_basis

from vflie.specht import _homogeneous_split, closure_basis, tspace_series


def _sympy_substitute(f, p, n):
    """f(p(x_1), ..., p(x_n)) for a {exponent tuple: coefficient} dict f
    and p given by {power: coefficient}, computed by sympy."""
    x = sympy.symbols("x1:%d" % (n + 1))
    images = {v: sum(c * v**k for k, c in p.items()) for v in x}
    image = sympy.Poly.from_dict(f, *x).as_expr().subs(images, simultaneous=True)
    return {e: Fraction(str(c)) for e, c in sympy.Poly(image, *x).as_dict().items()}


def test_sympy_substitute_oracle():
    # x1 x2 -> (x1 + 2 x1^2)(x2 + 2 x2^2), and p = t^2 applied twice is t^4
    assert _sympy_substitute({(1, 1): 1}, {1: 1, 2: 2}, 2) == {
        (1, 1): 1, (2, 1): 2, (1, 2): 2, (2, 2): 4
    }
    assert _sympy_substitute(_sympy_substitute({(1, 0): 3}, {2: 1}, 2), {2: 1}, 2) == {(4, 0): 3}


def test_homogeneous_split_matches_term_grouping():
    rng = random.Random(29)
    for _ in range(10):
        f = {
            tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(1, 4))
            for _ in range(4)
        }
        split = _homogeneous_split(f)
        assert list(split) == sorted({sum(e) for e in f})
        for d, comp in split.items():
            assert comp and all(sum(e) == d for e in comp)
        assert {e: c for comp in split.values() for e, c in comp.items()} == f


def test_closure_of_a_single_variable():
    ts = closure_basis([{(1,): Fraction(1)}], 1, 12)
    assert ts.dimensions() == [0] + [1] * 12
    fit = tspace_series(ts)
    assert not fit["inconclusive"]
    assert fit["num"] == [0, 1] and fit["den"] == [1, -1]
    assert in_span(ts.graded_basis, {(7,): Fraction(3)})
    assert in_span(ts.graded_basis, {})
    assert not in_span(ts.graded_basis, {(0,): Fraction(1), (1,): Fraction(1)})


def test_closure_membership_under_substitution():
    ts = closure_basis([{(1, 1): Fraction(1)}], 2, 10)
    rng = random.Random(7)
    for _ in range(20):
        p = {k: rng.randint(-3, 3) for k in range(1, 4)}
        if not any(p.values()):
            continue
        w = rng.choice([w for w in range(1, 6) if ts.graded_basis.get(w)])
        g = rng.choice(ts.graded_basis[w])
        image = _sympy_substitute(g, p, 2)
        low = {e: c for e, c in image.items() if sum(e) <= ts.cutoff}
        assert in_span(ts.graded_basis, low), (p, w)


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
            gens = []
            for _g in range(rng.randint(1, 2)):
                terms = {}
                for _t in range(rng.randint(1, 3)):
                    expo = tuple(rng.randint(0, 2) for _ in range(n))
                    if sum(expo) == 0:
                        continue
                    terms[expo] = coeff()
                if terms:
                    gens.append(terms)
            if gens:
                _assert_module_route_agrees(gens, n)
    # the closure is the line through (1/2) x1^w + (1/3) x2^w at each weight,
    # which holds the exact ratio only
    half_third = {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}
    _assert_module_route_agrees([half_third], 2)


def _assert_module_route_agrees(gens, n, cutoff=8):
    ts = closure_basis(gens, n, cutoff)
    basis = module_route_basis(gens, n, cutoff)
    assert ts.dimensions() == [len(basis.get(w, ())) for w in range(cutoff + 1)]
    for elements in basis.values():
        for m in elements:
            assert in_span(ts.graded_basis, m.terms)


def test_series_fit_two_variables():
    ts = closure_basis([{(1, 1): Fraction(1)}], 2, 10)
    fit = tspace_series(ts)
    assert not fit["inconclusive"]
    assert fit["num"] == [0, 0, 1]
    assert fit["den"] == [1, -1, -1, 1]  # (1 - t)(1 - t^2)


def test_series_fit_can_be_inconclusive():
    gens = [
        {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-2)},
        {(1, 1, 1): Fraction(3, 2)},
    ]
    fit = tspace_series(closure_basis(gens, 3, 8))
    assert fit["inconclusive"]
    assert "num" not in fit


def test_dimension_range_checks():
    ts = closure_basis([{(1,): Fraction(1)}], 1, 6)
    with pytest.raises(ValueError):
        closure_basis([{(1,): Fraction(1)}, {(1, 1): Fraction(1)}], 1, 6)
    with pytest.raises(ValueError):
        ts.dimension(7)
