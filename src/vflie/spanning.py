"""Spanning sets and graded-basis certificates for tensor modules.

The degree-r slice of T^r carries two distinguished sets of vectors: the
monomials z^b, and the vectors obtained by applying left-normalized words
e_1^(rho_1) ... e_r^(rho_r) to tail monomials z^a with a_i < i.  Because the
polynomial ring in r variables is a free module over the symmetric functions
with basis {z^a : a_i < i}, the two sets have equal cardinality in every
degree; whether the word family is a basis is controlled by a determinant
that is monic in a diagonal shift N of the mu parameters.

This module computes those determinants exactly, searches constructively for
shifts that make every verified slice a basis, and builds finite generating
sets by peeling one coordinate at a time.  Every positive answer is backed
by an exact rank certificate; nothing is inferred from genericity.

Every entry point is told its module T^r_(lam, mu) by one
tensormod.ModuleDescriptor, as word_vectors is; the shifted modules, the
peeled layers and the residue modules of a dilation are descriptors too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from ._enum import bounded_tails, monomials_of_degree, weighted_vectors
from .exact import ResourceLimitError, SparseMat, format_rat, interpolate, rank_of_vectors
from .tensormod import ModuleDescriptor, _act_int, graded_dimension, word_vectors

__all__ = [
    "GeneratorSet",
    "SearchExhaustedError",
    "power_basis_matrix",
    "shift_determinant",
    "graded_basis_certificate",
    "find_good_shift",
    "spanning_generators",
    "spanning_certificate",
    "dilated_generators",
]

DEFAULT_CUTOFF = 8
DEFAULT_BOUND = 12
# shift_determinant takes one exact slice determinant per interpolation
# point, degree + 1 of them: 188 at r = 5, 696 at r = 6.
MAX_INTERPOLATION_R = 5


class SearchExhaustedError(RuntimeError):
    """Shift search ran out of budget; carries the blocking evaluations."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class GeneratorSet(tuple):
    """A finite set of monomial exponents, kept sorted for determinism: the
    tuple of its exponent tuples."""

    __slots__ = ()

    def __new__(cls, exponents):
        return super().__new__(cls, sorted(tuple(int(a) for a in e) for e in exponents))


def _slice_index(r: int):
    """The degree-r slice's row index {monomial: row}, monomials lex
    increasing, and its sorted columns: the pairs (rho, a) with a_i < i and
    weight(rho) + |a| == r.  Rows and columns have equal count (the
    free-module count identity), asserted here."""
    rows = monomials_of_degree(r, r)
    cols = sorted(
        (rho, a)
        for j in range(r + 1)
        for a in bounded_tails(r, j)
        for rho in weighted_vectors(r, r - j)
    )
    assert len(cols) == len(rows), "count identity violated"
    return {expo: i for i, expo in enumerate(rows)}, cols


def _newton_data(desc, row_of, cols):
    """Integer Newton matrix of T^r on the slice index: the monomial
    expansion of the degree-r word family, column (rho, a) holding
    den**length(rho) times e_1^(rho_1) ... e_r^(rho_r) z^a, as word_vectors
    yields it."""
    vectors = dict(word_vectors(desc, None, desc.r))
    mat = SparseMat(len(row_of), len(cols))
    for j, (rho, a) in enumerate(cols):
        for expo, coeff in vectors[a, rho].items():
            mat.entries[row_of[expo], j] = coeff
    return mat


def power_basis_matrix(r: int) -> SparseMat:
    """Expansion of the products p_rho z^a over the degree-r monomials,
    same row/column ordering as _newton_data.  Always nonsingular: the
    polynomial ring is free over the symmetric functions with basis
    {z^a : a_i < i}.  Multiplying by p_k = sum_i z_i^k is the integer word
    action _act_int with den = 0 and every base 1."""
    row_of, cols = _slice_index(r)
    ones = (1,) * r
    mat = SparseMat(len(row_of), len(cols))
    for j, (rho, a) in enumerate(cols):
        vec = {a: 1}
        for k, times in enumerate(rho, 1):
            for _ in range(times):
                vec = _act_int(vec, k, 0, ones)
        for expo, coeff in vec.items():
            mat.entries[row_of[expo], j] = coeff
    return mat


def _shifted(desc, N):
    """T^r with the same lambdas and mu shifted by the integer vector N."""
    return ModuleDescriptor(desc.r, desc.lam, tuple(m + n for m, n in zip(desc.mu, N)))


def shift_determinant(desc, max_r: int = MAX_INTERPOLATION_R) -> list:
    """The slice determinant along the diagonal ray: the univariate
    polynomial N -> det at parameters (lam, mu + N*(1,...,1)), as its
    ascending list of Fraction coefficients.

    Monic of degree sum(length(rho)) over the columns: the top N-order of a
    word column is N^length * p_rho z^a, and the power-basis normalization
    makes the top coefficient exactly 1.  Computed by exact interpolation of
    the integer Newton determinants at N = 0..degree (an integer shift keeps
    the common denominator den), divided once by den**degree * det(power
    basis matrix).
    """
    r = desc.r
    if r > max_r:
        raise ResourceLimitError(
            "slice determinant interpolation capped at r <= %d (got r = %d)" % (max_r, r)
        )
    if r == 0:
        return [Fraction(1)]
    row_of, cols = _slice_index(r)
    degree = sum(sum(rho) for rho, _ in cols)
    # Every integer Newton entry is a polynomial of degree <= r in the shift
    # t: each of a word's at most r letters multiplies by a factor linear in
    # t.  So the matrices at t = 0..r fix each entry's forward differences,
    # which continue it to every later t by additions alone.
    first = [_newton_data(_shifted(desc, (t,) * r), row_of, cols).entries for t in range(r + 1)]
    diffs = {}
    for key in set().union(*first):
        d = [entries.get(key, 0) for entries in first]
        for j in range(1, r + 1):  # d[j] becomes the j-th difference at t = 0
            for i in range(r, j - 1, -1):
                d[i] -= d[i - 1]
        diffs[key] = d
    values = []
    for _ in range(degree + 1):
        mat = SparseMat(len(row_of), len(cols))
        mat.entries = {key: d[0] for key, d in diffs.items() if d[0]}
        values.append(mat.det())
        for d in diffs.values():
            for j in range(r):
                d[j] += d[j + 1]
    scale = desc.den ** degree * power_basis_matrix(r).det()
    return [c / scale for c in interpolate(values)]


# ---------------------------------------------------------------------------
# graded-basis certificates


@lru_cache(maxsize=4096)
def _slice_rank(desc, sources, w, d=1):
    """(dimension, candidate count, rank over Q) of the word family on the
    sources (a tuple of exponent tuples; None: the tail monomials) at weight
    w.  Sparse vectors go first, the order in which the mod-p step fills in
    least; their keys are the slice monomials numbered in lex order, and
    the slice dimension and the vector count bound the rank.  Memoised: the
    shift searches of spanning_generators ask for the same slices again."""
    dim = graded_dimension(desc, w)
    vectors = word_vectors(desc, sources, w, d)
    number = {m: i for i, m in enumerate(monomials_of_degree(desc.r, w))}
    family = [
        {number[m]: c for m, c in terms.items()}
        for _, terms in sorted(vectors, key=lambda lv: (len(lv[1]), lv[0]))
        if terms
    ]
    return dim, len(vectors), rank_of_vectors(family, bound=min(dim, len(family)))


def _slice_entries(desc, sources, cutoff, d=1, basis=False):
    """Per-weight rank entries of the word family on the sources (None: the
    tail monomials) and their joint verdict: full rank in every slice, and
    with basis=True exactly as many candidates as the slice dimension."""
    weights = []
    for w in range(cutoff + 1):
        dim, candidates, rank = _slice_rank(desc, sources, w, d)
        ok = rank == dim and (candidates == dim or not basis)
        weights.append(
            {"weight": w, "dimension": dim, "candidates": candidates, "rank": rank, "ok": ok}
        )
    return weights, all(entry["ok"] for entry in weights)


def graded_basis_certificate(desc, N, cutoff: int) -> dict:
    """Per-weight rank certificate for the shifted word family.

    For each weight w <= cutoff, the candidate vectors are
    e_1^(b_1) ... e_r^(b_r) z^a in T^r_(lam, mu + N) over all (b, a) with
    weight(b) + |a| = w and a_i < i; the slice passes when the candidate
    count equals binom(w+r-1, r-1) and the vectors are linearly
    independent.
    """
    if cutoff < desc.r:
        raise ValueError("cutoff must be at least r")
    N = tuple(int(x) for x in N)
    if len(N) != desc.r or any(x < 0 for x in N):
        raise ValueError("shift must be a nonnegative integer r-vector")
    weights, verdict = _slice_entries(_shifted(desc, N), None, cutoff, basis=True)
    return {
        **desc.to_dict(),
        "N": list(N),
        "cutoff": cutoff,
        "weights": weights,
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# shift search


def _ray_obstruction(desc, N, window):
    """First (s, k) with vanishing slice determinant along the coordinate
    rays of the shifted prefix parameters, or None if all checks pass.  The
    Newton matrix of T^s is square with the weight-s word family as columns,
    so its determinant vanishes exactly when that slice's rank falls short."""
    shifted = _shifted(desc, N).mu
    for s in range(1, desc.r + 1):
        mu_p = list(shifted[:s])
        base = mu_p[s - 1]
        for k in range(window + 1):
            mu_p[s - 1] = base + k
            dim, _, rank = _slice_rank(ModuleDescriptor(s, desc.lam[:s], mu_p), None, s)
            if rank < dim:
                return {"s": s, "k": k, "mu": [format_rat(x) for x in mu_p]}
    return None


def find_good_shift(desc, bound: int = DEFAULT_BOUND, cutoff: int = DEFAULT_CUTOFF):
    """Search for a shift N making the word family a verified graded basis;
    returns (N, the graded_basis_certificate that proved N).

    Strategy: diagonal shifts (t, ..., t) for t = 0..bound first, then greedy
    per-coordinate increments driven by the first vanishing determinant along
    the prefix coordinate rays.  Every returned shift is certified by
    graded_basis_certificate at the cutoff; determinant ray checks run over the
    window k = 0..cutoff, the only range that can touch verified weights.
    Raises SearchExhaustedError with the blocking report when the budget runs
    out.
    """
    r = desc.r
    failures = []

    def attempt(N):
        """The certificate that proves N, or None once N's failure is recorded."""
        obstruction = _ray_obstruction(desc, N, cutoff)
        if obstruction is not None:
            failures.append({"N": list(N), "vanishing": obstruction})
            return None
        cert = graded_basis_certificate(desc, N, cutoff)
        if cert["verdict"]:
            return cert
        failures.append({"N": list(N), "vanishing": None, "rank_failure": True})
        return None

    for t in range(bound + 1):
        cert = attempt((t,) * r)
        if cert:
            return (t,) * r, cert
    N = [0] * r
    for _ in range(bound * r + r):
        cert = attempt(tuple(N))
        if cert:
            return tuple(N), cert
        vanishing = failures[-1]["vanishing"]
        if vanishing is None:
            N[min(range(r), key=lambda j: N[j])] += 1
        else:
            N[vanishing["s"] - 1] += 1
        if max(N) > 2 * bound:
            break
    raise SearchExhaustedError(
        "no certified shift within bound %d for r=%d" % (bound, r),
        report={"r": r, "bound": bound, "failures": failures[-10:]},
    )


# ---------------------------------------------------------------------------
# spanning generators by coordinate peeling


def spanning_generators(
    desc, cutoff: int = DEFAULT_CUTOFF, bound: int = DEFAULT_BOUND
) -> GeneratorSet:
    """Finite monomial set S such that words e_1^(b_1) ... e_r^(b_r) applied
    to S span T^r_(lam, mu), certified up to the cutoff by spanning_certificate.

    Induction: a certified shift N embeds a copy with a graded word basis;
    the quotient is filtered by peeling coordinates one at a time, each layer
    being a rank r-1 module (coordinate i deleted, earlier mu's already
    shifted), handled recursively; the layer generators are lifted back and
    the box {N + a : a_i < i} covers the embedded copy.
    """
    r = desc.r
    if r == 0:
        return GeneratorSet(((),))
    N, _ = find_good_shift(desc, bound=bound, cutoff=cutoff)
    shifted = _shifted(desc, N).mu
    gens = set()
    for i in range(r):
        if N[i] == 0:
            continue
        layer = ModuleDescriptor(
            r - 1, desc.lam[:i] + desc.lam[i + 1 :], shifted[:i] + desc.mu[i + 1 :]
        )
        sub = spanning_generators(layer, cutoff, bound)
        for k in range(N[i]):
            for s in sub:
                gens.add(tuple(N[j] + s[j] for j in range(i)) + (k,) + s[i:])
    for tail in itertools.product(*(range(i + 1) for i in range(r))):
        gens.add(tuple(n + a for n, a in zip(N, tail)))
    return GeneratorSet(tuple(gens))


def spanning_certificate(S, desc, cutoff: int, d: int = 1) -> dict:
    """Per-weight rank certificate that words on S span every slice.

    Words use e_d, e_2d, ..., e_rd (d = 1 is the plain case); slice w passes
    when the vectors e_d^(b_1) ... e_rd^(b_r) z^s, s in S, reach full rank
    binom(w+r-1, r-1).
    """
    if d < 1:
        raise ValueError("dilation degree must be >= 1")
    gens = GeneratorSet(S)
    weights, verdict = _slice_entries(desc, gens, cutoff, d)
    return {
        **desc.to_dict(),
        "d": d,
        "generators": [list(e) for e in gens],
        "cutoff": cutoff,
        "weights": weights,
        "verdict": verdict,
    }


def dilated_generators(
    desc, d: int, cutoff: int = DEFAULT_CUTOFF, bound: int = DEFAULT_BOUND
) -> GeneratorSet:
    """Generator set for the action restricted to e_d, e_2d, ..., e_rd.

    Restriction to the dilated copy of the one-variable algebra splits each
    tensor factor into d residue submodules spanned by z^(d t + s); residue
    vector sbar contributes the d-dilated lift of the spanning generators of
    a rank-r module with parameters lam'_i = lam_i,
    mu'_i = (mu_i + s_i + lam_i)/d - lam_i (derived by matching the exact
    action coefficients on z^(d t + s)).
    """
    if d < 1:
        raise ValueError("dilation degree must be >= 1")
    r, lam, mu = desc.r, desc.lam, desc.mu
    if r == 0:
        return GeneratorSet(((),))
    gens = set()
    inner_cutoff = max(r, (cutoff + d - 1) // d + r)
    for residue in itertools.product(range(d), repeat=r):
        sub = ModuleDescriptor(
            r, lam, tuple((mu[i] + residue[i] + lam[i]) / d - lam[i] for i in range(r))
        )
        for t in spanning_generators(sub, cutoff=inner_cutoff, bound=bound):
            gens.add(tuple(d * t[i] + residue[i] for i in range(r)))
    return GeneratorSet(tuple(gens))
