"""Chevalley-Eilenberg homology: boundaries, tables, coefficient systems."""

import functools
import itertools
import json
from fractions import Fraction

import pytest
from _reference import boundary_matrix, chain_list, field_pool, homology_dim, window
from hypothesis import given, settings
from hypothesis import strategies as st

from vflie import cli, exact, homology
from vflie._enum import monomials_of_degree
from vflie.homology import homology_table
from vflie.liealg import AlgebraDescriptor
from vflie.spanning import ResourceLimitError
from vflie.tensormod import ModuleDescriptor

L1 = AlgebraDescriptor(1, d=1, flavor="L")
L2 = AlgebraDescriptor(1, d=2, flavor="L")
TRIV = ModuleDescriptor(0, (), ())


def _assert_zero(a, b):
    """The product of two boundary matrices, taken by sympy, is zero."""
    assert (a * b).is_zero_matrix


def test_boundary_squares_to_zero_trivial():
    for p in (1, 2, 3):
        for w in range(0, 11):
            _assert_zero(boundary_matrix(L1, TRIV, p, w), boundary_matrix(L1, TRIV, p + 1, w))


def test_boundary_squares_to_zero_tensor():
    coeffs = ModuleDescriptor(1, (Fraction(1),), (Fraction(0),))
    for p in (1, 2):
        for w in range(0, 7):
            _assert_zero(boundary_matrix(L1, coeffs, p, w), boundary_matrix(L1, coeffs, p + 1, w))


def test_boundary_squares_to_zero_coordinate_sum():
    alg = AlgebraDescriptor(2, d=1, flavor="Lsum")
    coeffs = ModuleDescriptor(2, (0, 0), (0, 0))
    for p in (1, 2):
        for w in range(0, 5):
            _assert_zero(boundary_matrix(alg, coeffs, p, w), boundary_matrix(alg, coeffs, p + 1, w))


def test_chain_dimensions_one_variable():
    # C_1(w) = span{e_w}; C_2(w) = #{i < j : i + j = w}
    for w in range(1, 9):
        assert len(chain_list(L1, TRIV, 1, w)) == 1
        assert len(chain_list(L1, TRIV, 2, w)) == (w - 1) // 2
    assert chain_list(L1, TRIV, 0, 0) == [((), ())]
    assert chain_list(L1, TRIV, 1, 0) == []


def test_low_degree_homology_window():
    table = homology_table(L1, TRIV, 2, 10)
    nonzero = sorted((p, w) for (p, w), v in table.items() if v)
    assert nonzero == [(0, 0), (1, 1), (1, 2), (2, 5), (2, 7)]
    assert all(table[key] == 1 for key in nonzero)


def _nonzero(table):
    return {key: v for key, v in table.items() if v}


def test_goncharova_weights():
    # Goncharova: H_q(L_1) is one-dimensional at weights (3q^2 - q)/2 and
    # (3q^2 + q)/2 and zero elsewhere; 26 = (3*16 + 4)/2 closes the q = 4 pair
    table = homology_table(L1, TRIV, 4, 26)
    assert len(table) == 5 * 27
    expected = {(0, 0): 1}
    for q in range(1, 5):
        expected[(q, (3 * q * q - q) // 2)] = 1
        expected[(q, (3 * q * q + q) // 2)] = 1
    assert _nonzero(table) == expected


def test_gelfand_fuks_w1():
    # Gelfand-Fuks: H_*(W_1) is k in degrees 0 and 3, both at weight 0
    table = homology_table(W1, TRIV, 4, 6)
    assert len(table) == 5 * 7
    assert _nonzero(table) == {(0, 0): 1, (3, 0): 1}


def test_homology_dim_matches_table():
    table = homology_table(L1, TRIV, 2, 6)
    for p in range(3):
        for w in range(7):
            assert homology_dim(L1, TRIV, p, w) == table[(p, w)]


def test_table_stable_under_larger_p_max():
    small = homology_table(L2, TRIV, 1, 6)
    large = homology_table(L2, TRIV, 3, 6)
    for p in range(2):
        for w in range(7):
            assert small[(p, w)] == large[(p, w)]


def test_euler_characteristic_per_weight():
    for alg, coeffs in (
        (L2, TRIV),
        (L1, ModuleDescriptor(1, (Fraction(1),), (Fraction(0),))),
        (LSUM2, LSUM2_TENSOR),
    ):
        for w in range(0, 8):
            dims = []
            p = 0
            while True:
                c = len(chain_list(alg, coeffs, p, w))
                dims.append(c)
                if c == 0 and p * alg.min_weight + (p * (p - 1)) // 2 > w:
                    break
                p += 1
            p_top = len(dims) - 1
            table = homology_table(alg, coeffs, p_top, w)
            chi_chain = sum((-1) ** p * c for p, c in enumerate(dims))
            chi_hom = sum((-1) ** p * table[(p, w)] for p in range(p_top + 1))
            assert chi_chain == chi_hom, (alg.label(), w)


def test_dim_limit_raises():
    with pytest.raises(ResourceLimitError):
        homology_table(L1, TRIV, 3, 12, dim_limit=2)


def test_coefficient_validation():
    # r = 0, the empty tensor product, is the trivial module and fits every flavor
    for alg in (W1, L1_2, LSUM2):
        assert homology_table(alg, TRIV, 1, 2)[0, 0] == 1
    one = ModuleDescriptor(1, (Fraction(0),), (Fraction(0),))
    two = ModuleDescriptor(2, (0, 0), (0, 0))
    for alg, coeffs in ((W1, one), (L1_2, one), (L1_2, two), (W2, two)):
        with pytest.raises(ValueError, match="support L_d.1. with d >= 1"):
            homology_table(alg, coeffs, 1, 2)
    with pytest.raises(ValueError, match="one tensor factor per coordinate"):
        homology_table(LSUM2, one, 1, 2)  # r = 1 but n = 2
    for argv in (["W:1", "--lam=1", "--mu=0"], ["L1:2", "--lam=1", "--mu=0"]):
        assert cli.main(["homology", "--algebra"] + argv) == 64
    assert cli.main(["homology", "--algebra", "Lsum:2", "--lam=1", "--mu=0"]) == 64


def test_coordinate_sum_of_one_matches_one_variable():
    # the reference puts factor 0 of Lsum:1 on coordinate 0 by the
    # coordinate-sum rule, L1:1 every factor on it: the same algebra and
    # action, so the same table
    lsum1 = AlgebraDescriptor(1, d=1, flavor="Lsum")
    table = homology_table(L1, L1_TENSOR, 3, 10)
    assert {key: homology_dim(lsum1, L1_TENSOR, *key) for key in table} == table
    assert sum(table.values()) > 0


def _vey_dims(n, p_max):
    """dim H^p(W_n), p <= p_max, from Vey's basis: 1 and the monomials u_I c_J,
    I = (i_1 < ... < i_s) non-empty and J = (j_1 <= ... <= j_t) in 1..n, with
    i_1 <= j_1, |J| = sum(J) <= n and i_1 + |J| > n, in degree
    sum(2i - 1) + 2|J|."""
    dims = [1] + [0] * p_max
    for s in range(1, n + 1):
        for i in itertools.combinations(range(1, n + 1), s):
            for t in range(n + 1):
                for j in itertools.combinations_with_replacement(range(1, n + 1), t):
                    if (j and i[0] > j[0]) or sum(j) > n or i[0] + sum(j) <= n:
                        continue
                    degree = sum(2 * a - 1 for a in i) + 2 * sum(j)
                    if degree <= p_max:
                        dims[degree] += 1
    return dims


def test_gelfand_fuks_vey_basis():
    # Gelfand-Fuks: H_*(W_n) lives in weight 0, where Vey's basis counts it
    for alg, n, p_max in ((W1, 1, 4), (W2, 2, 10)):
        table = homology_table(alg, TRIV, p_max, 0)
        assert [table[p, 0] for p in range(p_max + 1)] == _vey_dims(n, p_max)


def test_cartan_vanishing_w2():
    # the Euler field x_1 d_1 + x_2 d_2 acts by w on weight w and, by Cartan's
    # formula, by 0 on homology: H_p(W_2)(w) = 0 for every w != 0
    table = homology_table(W2, TRIV, 3, 3)
    assert table[0, 0] == 1
    assert all(dim == 0 for (p, w), dim in table.items() if w >= 1)


def test_csv_and_json_rendering(tmp_path):
    out = tmp_path / "table.csv"
    argv = ["homology", "--algebra", "L1:1", "--p-max", "1", "--w-max", "3", "--output", str(out)]
    assert cli.main(argv + ["--format", "csv"]) == 0
    assert out.read_text().split("\n") == ["p\\w,0,1,2,3", "0,1,0,0,0", "1,0,1,1,0", ""]
    out = tmp_path / "table.json"
    argv[-1] = str(out)
    assert cli.main(argv) == 0
    assert json.loads(out.read_text()) == {
        "algebra": "L1:1",
        "p_max": 1,
        "w_max": 3,
        "nonzero": [{"p": 0, "w": 0, "dim": 1}, {"p": 1, "w": 1, "dim": 1}, {"p": 1, "w": 2, "dim": 1}],
    }


L1_2 = AlgebraDescriptor(2, d=1, flavor="L")
W1 = AlgebraDescriptor(1, d=0, flavor="W")
LSUM2 = AlgebraDescriptor(2, d=1, flavor="Lsum")
LSUM2_TENSOR = ModuleDescriptor(2, (Fraction(1, 2), -1), (Fraction(1, 3), 2))
L1_TENSOR = ModuleDescriptor(1, (Fraction(1, 2),), (Fraction(-1, 3),))
W2 = AlgebraDescriptor(2, d=0, flavor="W")
L1_3 = AlgebraDescriptor(3, d=1, flavor="L")
# equal pairs (lambda_i, mu_i): swapping the coordinates fixes the window
LSUM2_EQUAL = ModuleDescriptor(2, (Fraction(1, 2),) * 2, (Fraction(1, 3),) * 2)

# (algebra, coefficients, p_max, w_max) windows for the certified table
WINDOWS = (
    (L1, TRIV, 3, 12),
    (L2, TRIV, 3, 14),
    (L1_2, TRIV, 3, 6),
    (W1, TRIV, 3, 6),
    (LSUM2, LSUM2_TENSOR, 3, 6),
    (L1, L1_TENSOR, 3, 8),
    (W2, TRIV, 3, 3),
    (L1_3, TRIV, 2, 4),
    (LSUM2, LSUM2_EQUAL, 3, 8),
)


@pytest.mark.parametrize("prime", [3, exact.PRIME])
def test_certified_table_matches_exact_ranks(monkeypatch, prime):
    # the reference: exact ranks of whole weight slices
    expected = [
        {
            (p, w): homology_dim(alg, coeffs, p, w)
            for p in range(p_max + 1)
            for w in range(w_max + 1)
        }
        for alg, coeffs, p_max, w_max in WINDOWS
    ]
    # mod 3 many block ranks drop, so the exact fallback has to carry them
    monkeypatch.setattr(exact, "rank_mod_p", functools.partial(exact.rank_mod_p, p=prime))
    fallbacks = []
    real = exact.Echelon

    def counting(*args, **kwargs):
        fallbacks.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exact, "Echelon", counting)
    for (alg, coeffs, p_max, w_max), table in zip(WINDOWS, expected):
        assert homology_table(alg, coeffs, p_max, w_max) == table, alg.label()
    if prime == 3:
        assert len(fallbacks) > 20


def test_chain_dims_count_the_chains():
    # the counts the size limit is checked on, before any field is numbered
    for alg, coeffs, p_max, w_max in WINDOWS:
        cx = window(alg, coeffs, p_max + 1, w_max)
        counts = homology._chain_dims(alg, coeffs, p_max + 1)
        for w, dims in zip(range(w_max + 1), counts):
            assert dims == [len(cx.chains(p, w)) for p in range(p_max + 2)], (alg.label(), w)


def _blocks_with_boundary(alg, coeffs, p_max, w_max):
    """(p, w, t) for every block whose d_p has rows and columns, with p in
    1..p_max + 1 as the table ranks them."""
    cx = window(alg, coeffs, p_max + 1, w_max)
    out = []
    for w in range(w_max + 1):
        tori = [{cx.torus(key) for key in cx.chains(p, w)} for p in range(p_max + 2)]
        out.extend((p, w, t) for p in range(1, p_max + 2) for t in tori[p] & tori[p - 1])
    return out


def test_mirror_blocks_share_ranks(monkeypatch):
    # a coordinate swap maps block t onto block (t_1, t_0) with the same
    # ranks, so only the block with t_0 <= t_1 is ranked
    calls = []
    real = exact.rank_mod_p

    def counting(vectors, **kwargs):
        calls.append(1)
        return real(vectors, **kwargs)

    monkeypatch.setattr(exact, "rank_mod_p", counting)
    blocks = _blocks_with_boundary(L1_2, TRIV, 3, 7)
    homology_table(L1_2, TRIV, 3, 7)
    assert len(calls) == sum(t[0] <= t[1] for _, _, t in blocks) < len(blocks) - 20


def test_boundary_preserves_torus_weight():
    # every boundary entry joins two chain keys of one torus weight: the split
    # the table ranks block by block (the coordinate sum is not split but
    # taken as a product)
    for alg, coeffs, p_max, w_max in WINDOWS:
        if alg.flavor == "Lsum":
            continue
        cx = window(alg, coeffs, p_max + 1, w_max)
        entries = 0
        for w in range(w_max + 1):
            for p in range(1, p_max + 2):
                rows = cx.chains(p - 1, w)
                row_of = {key: i for i, key in enumerate(rows)}
                for key in cx.chains(p, w):
                    for i in cx.column(key, row_of):
                        assert cx.torus(rows[i]) == cx.torus(key), (alg.label(), p, w)
                        entries += 1
        assert entries > 0, alg.label()


def _brute_chain_basis(alg, coeffs, p, w):
    """C_p(w) from every p-subset of the fields up to the top weight."""
    fields = field_pool(alg, homology._field_top(alg, p, w))
    wedges = list(itertools.combinations(fields, p))
    return [
        (wedge, expo)
        for wa in range(p * alg.min_weight, w + 1)
        for wedge in wedges
        if sum(f.weight for f in wedge) == wa
        for expo in monomials_of_degree(coeffs.r, w - wa)
    ]


def test_chain_basis_matches_brute_force():
    # order included: the table and the boundary matrices index chains by it
    l1_r2 = ModuleDescriptor(2, (Fraction(1, 2), 0), (0, Fraction(-1, 3)))
    w2 = AlgebraDescriptor(2, d=0, flavor="W")
    cases = ((W1, TRIV), (w2, TRIV), (L1_2, TRIV), (L2, TRIV), (LSUM2, LSUM2_TENSOR), (L1, l1_r2))
    for alg, coeffs in cases:
        for p in range(4):
            for w in range(5):
                expected = _brute_chain_basis(alg, coeffs, p, w)
                assert chain_list(alg, coeffs, p, w) == expected, (alg.label(), p, w)


def test_boundary_squares_to_zero_two_variables():
    for alg, coeffs, w_max in ((L1_2, TRIV, 6), (LSUM2, LSUM2_TENSOR, 7)):
        for p in (1, 2, 3):
            for w in range(w_max + 1):
                _assert_zero(
                    boundary_matrix(alg, coeffs, p, w), boundary_matrix(alg, coeffs, p + 1, w)
                )


_SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_coordinate_sum_is_the_kuenneth_product(data):
    # the product of L1:1 tables against the reference's whole coordinate-sum
    # complex; pairs drawn from a pool of at most n, so equal pairs recur
    n = data.draw(st.sampled_from((2, 3)), label="n")
    p_max, w_max = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 6))
    pool = data.draw(st.lists(st.tuples(_SMALL, _SMALL), min_size=1, max_size=n))
    pairs = [data.draw(st.sampled_from(pool)) for _ in range(n)]
    if data.draw(st.booleans(), label="trivial"):
        pairs = []
    alg = AlgebraDescriptor(n, d=1, flavor="Lsum")
    coeffs = ModuleDescriptor(len(pairs), [l for l, _ in pairs], [m for _, m in pairs])
    expected = {
        (p, w): homology_dim(alg, coeffs, p, w)
        for p in range(p_max + 1)
        for w in range(w_max + 1)
    }
    assert homology_table(alg, coeffs, p_max, w_max) == expected


@pytest.mark.parametrize("prime", [3, exact.PRIME])
def test_compressed_ranks_on_random_tensor_coefficients(prime):
    # the compressed block ranks against whole-slice exact ranks on L_d(1)
    # with random tensor coefficients; mod 3 many blocks fall back to exact
    # elimination, so J, the columns of d_p found independent, then comes
    # from the exact pass
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        alg = AlgebraDescriptor(1, d=data.draw(st.integers(1, 3), label="d"), flavor="L")
        r = data.draw(st.integers(0, 2), label="r")
        lam = data.draw(st.lists(_SMALL, min_size=r, max_size=r), label="lam")
        mu = data.draw(st.lists(_SMALL, min_size=r, max_size=r), label="mu")
        desc = ModuleDescriptor(r, lam, mu)
        expected = {(p, w): homology_dim(alg, desc, p, w) for p in range(4) for w in range(8)}
        assert homology_table(alg, desc, 3, 7) == expected

    fallbacks = []
    real = exact._fill_in_order

    def counting(family):
        fallbacks.append(1)
        return real(family)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "rank_mod_p", functools.partial(exact.rank_mod_p, p=prime))
        patch.setattr(exact, "_fill_in_order", counting)
        check()
    if prime == 3:
        assert len(fallbacks) > 20
