"""Exact arithmetic layer: interpolation, echelon forms, sparse matrices."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vflie import exact
from vflie.exact import (
    PRIME,
    Echelon,
    SparseMat,
    _fill_in_order,
    _poly_mul,
    _series_quotient,
    format_rat,
    interpolate,
    parse_rat,
    rank_mod_p,
    rank_of_vectors,
)


def test_parse_format_roundtrip():
    for text in ["0", "5", "-3", "7/2", "-11/6"]:
        assert format_rat(parse_rat(text)) == text
    assert parse_rat(" 3 / 4 ") == Fraction(3, 4)
    with pytest.raises(ValueError):
        parse_rat("1.5")
    with pytest.raises(ValueError):
        parse_rat("1/0")


def test_interpolate_at_offset():
    coeffs = [Fraction(3), Fraction(-1), Fraction(0), Fraction(1, 2)]

    def f(x):
        return sum(c * x**i for i, c in enumerate(coeffs))

    for x0 in (0, 5, -2):
        assert interpolate([f(x0 + i) for i in range(6)], x0) == coeffs
    assert interpolate([Fraction(0)] * 3) == []


def test_echelon_rank_and_dependency():
    ech = Echelon(track=True)
    vectors = [
        {0: Fraction(1), 1: Fraction(2)},
        {1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(1), 1: Fraction(3), 2: Fraction(1)},  # = v0 + v1
    ]
    assert ech.insert(vectors[0]) is None
    assert ech.insert(vectors[1]) is None
    combo = ech.insert(vectors[2])
    assert combo is not None and 2 in combo
    assert all(type(c) is int for c in combo.values())
    # the reported combination really sums to zero
    total = {}
    for idx, coeff in combo.items():
        for key, val in vectors[idx].items():
            total[key] = total.get(key, Fraction(0)) + coeff * val
    assert all(v == 0 for v in total.values())
    assert ech.rank == 2


@st.composite
def _tracked_families(draw):
    """(family, probes): vectors over keys 0..5, all Fraction or all int, some
    of them combinations of earlier ones, and probe vectors, some of them in
    the family's span."""
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        entry = st.builds(Fraction, entry, st.integers(1, 3))
    vector = st.dictionaries(st.integers(0, 5), entry, max_size=6)
    family = []
    for _ in range(draw(st.integers(1, 7))):
        if family and draw(st.booleans()):
            coeffs = [draw(entry) for _ in family]
            keys = set().union(*family)
            vec = {k: sum(c * v.get(k, 0) for c, v in zip(coeffs, family)) for k in keys}
            family.append({k: x for k, x in vec.items() if x})
        else:
            family.append(draw(vector))
    probes = draw(st.lists(vector, max_size=3))
    probes += [{k: 2 * x for k, x in v.items()} for v in family[: draw(st.integers(0, 2))]]
    return family, probes


def _rank(vectors):
    return sympy.Matrix([[sympy.Rational(str(v.get(k, 0))) for k in range(6)] for v in vectors]).rank()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_tracked_families())
def test_tracked_echelon_on_random_families(case):
    # every dependency sums to zero over the inserted vectors, every pivot
    # row with its tracked combination has content 1 and a positive leading
    # entry, the rank is sympy's, and reduce is empty exactly on the span
    family, probes = case
    ech = Echelon(track=True)
    for index, vec in enumerate(family):
        combo = ech.insert(vec)
        if combo is None:
            continue
        assert combo[index] != 0 and all(type(c) is int for c in combo.values())
        for k in range(6):
            assert sum(c * family[i].get(k, 0) for i, c in combo.items()) == 0
    for lead, row in ech.pivots.items():
        assert lead == max(row) and row[lead] > 0
        assert math.gcd(*row.values(), *ech._combos[lead].values()) == 1
    rank = _rank(family)
    assert ech.rank == rank
    for vec in probes:
        assert (ech.reduce(vec) == {}) == (_rank(family + [vec]) == rank)


def test_echelon_reduce_membership():
    ech = Echelon()
    ech.insert({0: Fraction(1), 1: Fraction(1)})
    ech.insert({1: Fraction(1)})
    assert ech.reduce({0: Fraction(5), 1: Fraction(-2)}) == {}
    assert ech.reduce({2: Fraction(1)}) != {}


def _random_sparse(rng, rows, cols, density=0.3):
    m = SparseMat(rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                m[i, j] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return m


def _sympy_matrix(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(str(m.entries.get((i, j), 0))))


_T = sympy.Symbol("t")
_COEFFS = st.lists(st.integers(-9, 9), min_size=1, max_size=8)


def _ascending(poly, n):
    """The first n ascending coefficients of a sympy Poly in t."""
    return (list(reversed(poly.all_coeffs())) + [0] * n)[:n]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_COEFFS, _COEFFS)
def test_poly_mul_matches_sympy(a, b):
    product = sympy.Poly(list(reversed(a)), _T) * sympy.Poly(list(reversed(b)), _T)
    assert _poly_mul(a, b) == _ascending(product, len(a) + len(b) - 1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_COEFFS, st.lists(st.integers(-9, 9), max_size=6), st.integers(1, 12))
def test_series_quotient_matches_sympy(a, b_tail, n):
    # the power series of a/b to n terms is a times the inverse of b mod t^n
    b = [1] + b_tail
    modulus = sympy.Poly(_T**n, _T)
    inverse = sympy.Poly(list(reversed(b)), _T, domain="QQ").invert(modulus)
    series = (sympy.Poly(list(reversed(a)), _T) * inverse).rem(modulus)
    assert _series_quotient(a, b, n) == _ascending(series, n)
    assert _series_quotient(a, b, 0) == []


def test_rank_transpose_invariance():
    rng = random.Random(2024)
    for _ in range(30):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = _random_sparse(rng, rows, cols)
        t = SparseMat(cols, rows, {(j, i): v for (i, j), v in m.entries.items()})
        # rank ranks the columns, so this checks the rows' rank too
        assert m.rank() == t.rank() == _sympy_matrix(m).rank()


def test_rank_nullity_and_kernel():
    rng = random.Random(99)
    for _ in range(8):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = _random_sparse(rng, rows, cols, density=0.5)
        ker = m.kernel_basis()
        assert m.rank() + len(ker) == cols
        for vec in ker:
            assert len(vec) == cols and all(type(c) is int for c in vec)
            for i in range(rows):
                total = sum(m.entries.get((i, j), 0) * vec[j] for j in range(cols))
                assert total == 0


def _det_permutation(dense):
    """Permutation-expansion determinant, the slow reference."""
    n = len(dense)
    total = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = dense[0][perm[0]]
        for i in range(1, n):
            term = term * dense[i][perm[i]]
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def test_det_against_permutation_expansion():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(5):
            dense = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)
            ]
            entries = {(i, j): x for i, row in enumerate(dense) for j, x in enumerate(row)}
            assert SparseMat(n, n, entries).det() == _det_permutation(dense)


@st.composite
def _square_matrices(draw):
    """Sparse square matrices, 0x0 to 6x6, with integer or rational entries:
    random, with a repeated or a zero column, or permuted triangular."""
    n = draw(st.integers(0, 6))
    den = st.integers(1, 4) if draw(st.booleans()) else st.just(1)
    entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-6, 6), den))
    cols = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(("random", "repeated", "zero", "triangular")))
    if kind == "triangular":
        nonzero = st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1), den)
        for j in range(n):
            cols[j][j + 1 :] = [0] * (n - j - 1)
            cols[j][j] = draw(nonzero)
        rows, order = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
        cols = [[cols[j][i] for i in rows] for j in order]
    elif n and kind == "zero":
        cols[draw(st.integers(0, n - 1))] = [0] * n
    elif n > 1 and kind == "repeated":
        i, j = draw(st.permutations(range(n)))[:2]
        cols[j] = list(cols[i])
    return SparseMat(n, n, {(i, j): x for j, col in enumerate(cols) for i, x in enumerate(col)})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_square_matrices())
def test_det_matches_sympy(m):
    # det != 0 exactly when the columns are independent in an Echelon
    ech = Echelon()
    for col in m.col_vectors():
        ech.insert(col)
    assert (m.det() != 0) == (ech.rank == m.rows)
    expected = Fraction(str(_sympy_matrix(m).det()))
    assert m.det() == expected


def test_det_multiplicative():
    rng = random.Random(5)
    for n in range(1, 9):
        a = _sympy_matrix(_random_sparse(rng, n, n, density=0.8))
        b = _sympy_matrix(_random_sparse(rng, n, n, density=0.8))
        dets = []
        for c in (a, b, a * b):
            m = SparseMat(n, n, {(i, j): Fraction(str(x)) for (i, j), x in c.todok().items()})
            assert m.det() == Fraction(str(c.det())), (n, c)
            dets.append(m.det())
        assert dets[2] == dets[0] * dets[1]


def test_rank_of_vectors():
    vecs = [
        {0: Fraction(2)},
        {0: Fraction(1), 1: Fraction(1)},
        {1: Fraction(2)},  # dependent on the first two
    ]
    assert rank_of_vectors(vecs) == 2


def _random_sparse_family(rng, rational):
    nvecs, nkeys = rng.randint(1, 9), rng.randint(1, 9)
    vecs = []
    for _ in range(nvecs):
        vec = {}
        for k in rng.sample(range(nkeys), rng.randint(0, nkeys)):
            c = rng.choice((-6, -3, -2, -1, 1, 2, 3, 6, 9))
            vec[k] = Fraction(c, rng.choice((1, 2, 3, 5))) if rational else c
        vecs.append(vec)
    return vecs


def test_rank_mod_p_bounds_exact_rank(monkeypatch):
    rng = random.Random(2024)
    fired = dropped = 0
    real = exact.rank_mod_p
    for trial in range(400):
        vecs = _random_sparse_family(rng, rational=trial % 2 == 1)
        rank = rank_of_vectors(vecs)
        full = min(len(vecs), len({k for v in vecs for k in v}))
        for p in (3, PRIME):
            r = rank_mod_p(vecs, p)
            assert r <= rank
            if r == full:  # the full-rank rule proves the rank over Q
                assert r == rank
                fired += 1
            dropped += r < rank
            for limit in range(full + 1):
                assert rank_mod_p(vecs, p, limit=limit) == min(limit, r)
            # any upper bound gives the rank over Q, whether or not the
            # mod-p rank reaches it
            monkeypatch.setattr(exact, "rank_mod_p", functools.partial(real, p=p))
            for bound in range(rank, len(vecs) + 2):
                assert rank_of_vectors(vecs, bound=bound) == rank
        monkeypatch.setattr(exact, "rank_mod_p", None)  # no bound: no mod-p step
        assert rank_of_vectors(vecs) == rank
    assert fired > 200 and dropped > 10  # both outcomes are exercised


def test_rank_mod_p_scales_each_vector():
    # {1/3, 2/3} scales to {1, 2}: rank 1, and 3 is not lost mod 3
    vecs = [{0: Fraction(1, 3), 1: Fraction(2, 3)}, {0: 2, 1: 4}]
    assert rank_mod_p(vecs, 3) == 1 == rank_of_vectors(vecs)
    assert rank_mod_p([{0: 3, 1: 6}], 3) == 0  # a multiple of p vanishes


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rank_invariant_under_column_order_and_key_relabelling(data):
    # at most 6 vectors with entries in -3..3: every minor is below 7.35^6 by
    # Hadamard's bound, far below PRIME, so the rank mod PRIME is the rank
    # over Q and both kernels must agree on every order and labelling
    nkeys = data.draw(st.integers(1, 6))
    entries = st.integers(-3, 3).filter(bool)
    family = data.draw(
        st.lists(st.dictionaries(st.integers(0, nkeys - 1), entries), max_size=6)
    )
    order = data.draw(st.permutations(range(len(family))))
    labels = data.draw(st.lists(st.integers(-50, 50), min_size=nkeys, max_size=nkeys, unique=True))
    rank, rank3 = rank_of_vectors(family), rank_mod_p(family, 3)
    reordered = [family[i] for i in order]
    relabelled = [{labels[k]: c for k, c in vec.items()} for vec in reordered]
    for variant in (family, reordered, relabelled, _fill_in_order(reordered)):
        assert rank_of_vectors(variant) == rank_mod_p(variant) == rank
        assert rank_mod_p(variant, 3) == rank3
