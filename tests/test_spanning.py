"""Shift determinants, graded-basis certificates, spanning generators."""

import functools
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
import sympy
from _reference import shift_determinant_value
from sympy.polys.matrices import DomainMatrix

from vflie import exact, spanning
from vflie._enum import monomials_of_degree
from vflie.tensormod import ModuleDescriptor, ModuleElement, act_e
from vflie.spanning import (
    SearchExhaustedError,
    _newton_data,
    _slice_index,
    dilated_generators,
    find_good_shift,
    graded_basis_certificate,
    power_basis_matrix,
    shift_determinant,
    spanning_certificate,
    spanning_generators,
)

ZERO_1 = ModuleDescriptor(1, (0,), (0,))
ZERO_2 = ModuleDescriptor(2, (0, 0), (0, 0))


def _rand_rat(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def _horner(coeffs, x):
    """The polynomial with these ascending coefficients, evaluated at x."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def test_shift_determinant_rank_one():
    rng = random.Random(12)
    for _ in range(10):
        lam, mu = _rand_rat(rng), _rand_rat(rng)
        assert shift_determinant(ModuleDescriptor(1, (lam,), (mu,))) == [mu + 2 * lam, 1]
    assert shift_determinant(ModuleDescriptor(0, (), ())) == [1]


def test_shift_determinant_rank_two_trivial():
    coeffs = shift_determinant(ModuleDescriptor(2, (Fraction(0),) * 2, (Fraction(0),) * 2))
    assert coeffs == [0, 0, 0, 1, 1]  # N^4 + N^3
    assert all(type(c) is Fraction for c in coeffs)


def test_shift_determinant_monic():
    rng = random.Random(34)
    for r in (1, 2, 3):
        for _ in range(3):
            lam = tuple(_rand_rat(rng) for _ in range(r))
            mu = tuple(_rand_rat(rng) for _ in range(r))
            assert shift_determinant(ModuleDescriptor(r, lam, mu))[-1] == 1


def test_shift_determinant_value_matches_polynomial():
    rng = random.Random(56)
    for r in (1, 2):
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        coeffs = shift_determinant(ModuleDescriptor(r, lam, mu))
        for t in range(4):
            shifted = ModuleDescriptor(r, lam, tuple(m + t for m in mu))
            assert shift_determinant_value(shifted) == _horner(coeffs, t)
    # lists, tuples, ints and Fractions are the same parameters
    for lam, mu in (((Fraction(1, 2),), (3,)), ([Fraction(1, 2)], [Fraction(3)])):
        assert shift_determinant_value(ModuleDescriptor(1, lam, mu)) == Fraction(4)


def _first_vanishing(r, lam, mu, N, window):
    """Brute force: the first (s, k, mu prefix) along the coordinate rays
    where the exact slice determinant is zero."""
    shifted = [Fraction(m) + n for m, n in zip(mu, N)]
    for s in range(1, r + 1):
        for k in range(window + 1):
            mu_p = shifted[: s - 1] + [shifted[s - 1] + k]
            if shift_determinant_value(ModuleDescriptor(s, lam[:s], mu_p)) == 0:
                return {"s": s, "k": k, "mu": [exact.format_rat(x) for x in mu_p]}
    return None


def test_ray_obstruction_matches_determinants():
    rng = random.Random(23)
    # zero parameters at N = 0: the rank-one determinant N + mu + 2 lam is 0
    cases = [(r, (0,) * r, (0,) * r, (0,) * r, 3) for r in (1, 2, 3)]
    for _ in range(24):
        r = rng.randint(1, 3)
        lam = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(r))
        mu = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(r))
        N = tuple(rng.randint(0, 2) for _ in range(r))
        cases.append((r, lam, mu, N, rng.randint(0, 4)))
    outcomes = set()
    for r, lam, mu, N, window in cases:
        found = spanning._ray_obstruction(ModuleDescriptor(r, lam, mu), N, window)
        assert found == _first_vanishing(r, lam, mu, N, window), (r, lam, mu, N, window)
        outcomes.add(found is None)
    assert spanning._ray_obstruction(ModuleDescriptor(1, (0,), (0,)), (0,), 3)["k"] == 0
    assert outcomes == {True, False}


def _newton_matrix(r, lam, mu):
    """The integer Newton matrix of the degree-r slice and its columns."""
    row_of, cols = _slice_index(r)
    return _newton_data(ModuleDescriptor(r, lam, mu), row_of, cols), cols


def test_newton_matrix_square_by_count_identity():
    for r in (1, 2, 3):
        row_of, cols = _slice_index(r)
        assert list(row_of) == [tuple(e) for e in monomials_of_degree(r, r)]
        assert list(row_of.values()) == list(range(len(row_of)))
        assert cols == _degree_r_columns(r)
        m, _ = _newton_matrix(r, (Fraction(0),) * r, (Fraction(0),) * r)
        assert m.rows == m.cols == comb(r + r - 1, r - 1)


def test_newton_matrix_rank_trivial_params():
    m, _ = _newton_matrix(2, (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    assert m.rows == 3
    assert m.rank() == 3


def test_newton_matrix_fractional_parameters_exact():
    # the integer column (rho, a), divided by den**length(rho), is the word
    # e_1^(rho_1) ... e_r^(rho_r) z^a taken one Fraction act_e at a time
    rng = random.Random(91)
    for r in (1, 2, 3):
        lam = tuple(Fraction(2 * rng.randint(-2, 2) + 1, 2) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        m, cols = _newton_matrix(r, lam, mu)
        desc = ModuleDescriptor(r, lam, mu)
        rows = monomials_of_degree(r, r)
        assert (m.rows, m.cols) == (len(rows), len(cols))
        assert all(type(c) is int for col in m.columns for c in col.values())
        for j, (rho, a) in enumerate(cols):
            vec = ModuleElement(desc, {a: 1})
            for k in range(r, 0, -1):
                for _ in range(rho[k - 1]):
                    vec = act_e(k, vec)
            scale = desc.den ** sum(rho)
            for i, row in enumerate(rows):
                assert Fraction(m.columns[j].get(i, 0), scale) == vec.terms.get(tuple(row), 0)


def _degree_r_columns(r):
    """The pairs (rho, a), a_i < i, of weight r, sorted."""
    return sorted(
        (rho, a)
        for a in itertools.product(*(range(i + 1) for i in range(r)))
        for rho in itertools.product(range(r + 1), repeat=r)
        if sum(a) + sum((i + 1) * b for i, b in enumerate(rho)) == r
    )


def test_power_basis_matrix_matches_mpoly_products():
    # column (rho, a) is (prod_k p_k^(rho_k)) z^a, p_k = sum_i z_i^k
    # the products are taken by sympy.Poly, an independent oracle
    for r in (1, 2, 3, 4):
        z = sympy.symbols("z1:%d" % (r + 1))
        power = [None] + [sympy.Poly(sum(v**k for v in z), *z) for k in range(1, r + 1)]
        m = power_basis_matrix(r)
        rows = monomials_of_degree(r, r)
        cols = _degree_r_columns(r)
        assert (m.rows, m.cols) == (len(rows), len(cols))
        for j, (rho, a) in enumerate(cols):
            column = sympy.Poly.from_dict({a: 1}, *z)
            for k, times in enumerate(rho, 1):
                column = column * power[k] ** times
            terms = column.as_dict()
            for i, row in enumerate(rows):
                assert m.columns[j].get(i, 0) == terms.get(row, 0)
        assert m.det() != 0


def test_power_basis_matrix_is_not_shared():
    # every call builds a fresh matrix: clearing one leaves the power-basis
    # determinant that shift_determinant divides by, here of N^3 (N + 1)
    for col in power_basis_matrix(2).columns:
        col.clear()
    assert shift_determinant(ModuleDescriptor(2, (0, 0), (0, 0))) == [0, 0, 0, 1, 1]


def test_find_good_shift_small_cases():
    assert find_good_shift(ZERO_1)[0] == (1,)
    assert find_good_shift(ModuleDescriptor(1, (Fraction(1),), (Fraction(0),)))[0] == (0,)
    N, cert = find_good_shift(ZERO_2)
    assert cert["verdict"] and cert["N"] == list(N)
    assert graded_basis_certificate(ZERO_2, N, 8)["verdict"]
    # rank 0 needs no search: the empty shift, proved at t = 0
    assert find_good_shift(ModuleDescriptor(0, (), ()))[0] == ()


def test_find_good_shift_exhaustion():
    with pytest.raises(SearchExhaustedError) as info:
        find_good_shift(ZERO_1, bound=0)
    assert info.value.report  # the failure report lists attempted shifts


def _word_family_ranks(r, lam, mu, cutoff):
    """(candidate count, sympy rank) per weight of the words
    e_1^(b_1) ... e_r^(b_r) z^a, a_i < i, each taken one act_e at a time."""
    desc = ModuleDescriptor(r, lam, mu)
    out = []
    for w in range(cutoff + 1):
        vectors = []
        for a in itertools.product(*(range(i + 1) for i in range(r))):
            for b in itertools.product(range(w + 1), repeat=r):
                if sum(a) + sum((i + 1) * x for i, x in enumerate(b)) != w:
                    continue
                vec = ModuleElement(desc, {a: 1})
                for k in range(r, 0, -1):
                    for _ in range(b[k - 1]):
                        vec = act_e(k, vec)
                vectors.append(vec.terms)
        rows = sorted({e for v in vectors for e in v})
        mat = sympy.Matrix(len(rows), len(vectors), lambda i, j: vectors[j].get(rows[i], 0))
        out.append((len(vectors), mat.rank()))
    return out


def test_find_good_shift_greedy_phase():
    # the rank-one determinant N + mu_1 + 2 lam_1 = N - 1 vanishes on the ray
    # of both diagonal shifts within bound 1, (0, 0) at k = 1 and (1, 1) at
    # k = 0, so the shift comes from the greedy increments
    lam, mu = (Fraction(-1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1))
    assert shift_determinant(ModuleDescriptor(1, lam[:1], mu[:1])) == [-1, 1]
    N, cert = find_good_shift(ModuleDescriptor(2, lam, mu), bound=1, cutoff=4)
    assert N == (2, 0) and cert["N"] == [2, 0] and cert["verdict"]
    shifted = tuple(m + n for m, n in zip(mu, N))
    expected = [(w + 1, w + 1) for w in range(5)]  # dim T^2_w = w + 1
    assert _word_family_ranks(2, lam, shifted, 4) == expected
    assert [(e["candidates"], e["rank"]) for e in cert["weights"]] == expected


def test_graded_basis_certificate_shape():
    cert = graded_basis_certificate(ZERO_1, (1,), 6)
    assert cert["verdict"] is True
    assert cert["N"] == [1]
    assert len(cert["weights"]) == 7
    for entry in cert["weights"]:
        assert entry["rank"] == entry["dimension"]
    with pytest.raises(ValueError):
        graded_basis_certificate(ModuleDescriptor(3, (0,) * 3, (0,) * 3), (1, 1, 1), 2)


def test_spanning_generators_rank_one():
    S = spanning_generators(ZERO_1)
    assert [list(e) for e in S] == [[0], [1]]
    assert spanning_certificate(S, ZERO_1, 12)["verdict"]


def test_spanning_generators_rank_two_trivial():
    S = spanning_generators(ZERO_2)
    assert [list(e) for e in S] == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 2]]
    assert spanning_certificate(S, ZERO_2, 10)["verdict"]


def test_spanning_random_parameters():
    rng = random.Random(78)
    for _ in range(4):
        r = rng.randint(1, 3)
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        desc = ModuleDescriptor(r, lam, mu)
        S = spanning_generators(desc)
        cert = spanning_certificate(S, desc, 8)
        assert cert["verdict"], (r, lam, mu)
        assert cert["d"] == 1
        assert all(entry["ok"] for entry in cert["weights"])


def test_dilated_generators_rank_one():
    S = dilated_generators(ZERO_1, 2)
    assert [list(e) for e in S] == [[0], [1], [2]]
    assert spanning_certificate(S, ZERO_1, 10, d=2)["verdict"]


def test_dilated_generators_rank_two():
    S = dilated_generators(ZERO_2, 2)
    assert spanning_certificate(S, ZERO_2, 8, d=2)["verdict"]


def test_spanning_certificate_dilated_shape():
    S = dilated_generators(ZERO_1, 3)
    cert = spanning_certificate(S, ZERO_1, 9, d=3)
    assert cert["d"] == 3
    assert cert["verdict"]


CERTIFICATE_CASES = (
    # (r, lam, mu, N, cutoff): two proving shifts and two failing ones
    (2, (0, 0), (0, 0), (1, 1), 7),
    (3, (Fraction(1, 2), -1, 0), (0, Fraction(1, 3), -2), (2, 2, 2), 6),
    (2, (0, 0), (0, 0), (0, 0), 5),
    (2, (1, 0), (-2, 0), (0, 1), 6),
)


def _certificates():
    spanning._slice_rank.cache_clear()  # rank every slice in the current mode
    out = []
    for r, lam, mu, N, cutoff in CERTIFICATE_CASES:
        desc = ModuleDescriptor(r, lam, mu)
        out.append(graded_basis_certificate(desc, N, cutoff))
        # the certificate of the searched shift records that shift as "N"
        out.append(find_good_shift(desc, cutoff=cutoff)[1])
        S = [tuple(N[i] + (j == i) for j in range(r)) for i in range(r)] + [tuple(N)]
        out.append(spanning_certificate(S, desc, cutoff))
        out.append(spanning_certificate(S, desc, cutoff, d=2))
    return out


def test_certificates_match_exact_ranks(monkeypatch):
    fallbacks = []
    real_echelon, real_mod_p = exact.Echelon, exact.rank_mod_p

    def counting(*args, **kwargs):
        fallbacks.append(1)
        return real_echelon(*args, **kwargs)

    monkeypatch.setattr(exact, "Echelon", counting)
    monkeypatch.setattr(exact, "rank_mod_p", lambda vectors, limit=None, kept=None: -1)
    exact_only = _certificates()  # every slice ranked by exact elimination
    assert {c["verdict"] for c in exact_only} == {True, False}
    counts = []
    for prime in (exact.PRIME, 3):
        fallbacks.clear()
        monkeypatch.setattr(exact, "rank_mod_p", functools.partial(real_mod_p, p=prime))
        assert _certificates() == exact_only
        counts.append(len(fallbacks))
    # mod 3 some full-rank slices drop, and the exact fallback carries them
    assert counts[1] > counts[0]


def _symbolic_newton_matrix(r, lam, mu, N):
    """The Newton matrix at (lam, mu + N) with N a sympy symbol, built from the
    operators e_k = sum_i z_i^(k+1) d/dz_i + (mu_i + N + (k+1) lam_i) z_i^k."""
    z = sympy.symbols("z1:%d" % (r + 1))

    def e(k, f):
        return sum(
            z[i] ** (k + 1) * sympy.diff(f, z[i])
            + (sympy.Rational(str(mu[i])) + N + (k + 1) * sympy.Rational(str(lam[i])))
            * z[i] ** k
            * f
            for i in range(r)
        )

    rows = monomials_of_degree(r, r)
    columns = []
    for rho, a in _degree_r_columns(r):
        f = sympy.Mul(*(v**x for v, x in zip(z, a)))
        for k in range(r, 0, -1):  # e_r acts first
            for _ in range(rho[k - 1]):
                f = e(k, f)
        terms = sympy.Poly(sympy.expand(f), *z).as_dict()
        columns.append([terms.get(row, 0) for row in rows])
    return sympy.Matrix(len(rows), len(columns), lambda i, j: columns[j][i])


def test_shift_determinant_matches_symbolic_det():
    N = sympy.Symbol("N")
    rng = random.Random(78)
    for r in (1, 2, 3):
        lam = tuple(_rand_rat(rng) for _ in range(r))
        mu = tuple(_rand_rat(rng) for _ in range(r))
        power = power_basis_matrix(r)
        power = sympy.Matrix(power.rows, power.cols, lambda i, j: power.columns[j].get(i, 0))
        # sympy's determinant over the polynomial ring Q[N]
        newton = DomainMatrix.from_Matrix(_symbolic_newton_matrix(r, lam, mu, N))
        newton = newton.convert_to(sympy.QQ[N])
        det = newton.domain.to_sympy(newton.det()) / power.det()
        expected = sympy.Poly(det, N).all_coeffs()[::-1]
        coeffs = shift_determinant(ModuleDescriptor(r, lam, mu))
        assert coeffs == [Fraction(str(c)) for c in expected], (lam, mu)


def test_shift_determinant_zero_parameter_factorizations():
    N = sympy.Symbol("N")
    three_halves, four_thirds = sympy.Rational(3, 2), sympy.Rational(4, 3)
    factors = {
        2: N**3 * (N + 1),
        3: N**9 * (N + 1) ** 3 * (N + three_halves) ** 2,
        4: N**31 * (N + 1) ** 9 * (N + 2) ** 4 * (N + three_halves) ** 4 * (N + four_thirds) ** 3,
    }
    for r, product in factors.items():
        expected = sympy.Poly(product, N).all_coeffs()[::-1]
        coeffs = shift_determinant(ModuleDescriptor(r, (0,) * r, (0,) * r))
        assert coeffs == [Fraction(str(c)) for c in expected], r
