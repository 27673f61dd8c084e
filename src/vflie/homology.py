"""Chevalley-Eilenberg homology of the vector-field algebras, weight slice
by weight slice.

Chains are C_p = Lambda^p(g) (x) M with the boundary

  d(x_1 ^ ... ^ x_p (x) m) =
      sum_(i<j) (-1)^(i+j) [x_i, x_j] ^ ... x_i^ ... x_j^ ... (x) m
    + sum_i    (-1)^i     x_1 ^ ... x_i^ ... ^ x_p (x) x_i . m.

The coefficients M are a tensor module T^r_(lambda, mu), named by the
tensormod.ModuleDescriptor every layer takes (r = 0: the trivial module k);
on L_d(1), x^(k+1) d acts as e_k.  Their whole rule, the module basis, the
module's share of the torus weight and the action, lives in _Complex.

Both terms preserve total weight (wedge weight plus module weight), so every
homology space splits into finite-dimensional weight slices.  They also
preserve the finer torus weight in Z^n: the sum of a - e_i over the wedge
fields x^a d_i plus, on the one coordinate of L_d(1), the module degree.
So each slice splits further into blocks, each its own subcomplex, and

  dim H_p(w) = sum over blocks t of dim C_p(t) - rank d_p(t) - rank d_(p+1)(t).

A window numbers its basis fields in sort order, so a chain is the integer
key (increasing tuple of field numbers, module exponent).  Chains are
enumerated, split and differentiated as keys.

A permutation s of the coordinates is an automorphism of W(n) and L_d(n)
and fixes the trivial module, their only coefficients for n >= 2.  It maps
the chains of torus weight t onto those of weight s(t), each up to the sign
of re-sorting its wedge, and commutes with d; so blocks t and s(t) have the
same ranks, over Q and mod every prime.  Only the canonical block of each
orbit, t sorted, is ranked, and the other blocks of its orbit share its
ranks.

Each canonical block is ranked once, going up in p, by
``exact.rank_of_vectors``, which also names the columns it found
independent.  The columns of d_(p+1) are built, lazily, only on the rows
that d_p's independent columns leave free (compression, see
``_weight_table``), so their row count dim C_p(t) - rank d_p(t) is the
bound that d o d = 0 gives.  A mod-p rank that reaches it is exact; any
other block is ranked by exact elimination, so every table entry is exact.

Mod p the columns go in chain order: sparsest-column-first multiplied the
row-operation entries (over all blocks of L1:1 p <= 4, w <= 40: 1210574
against 211675; L2:1, same window: 494917 against 145534; L1:2 p <= 3,
w <= 8: 659184 against 579067, and 331429 once mirror blocks are skipped).

The coordinate sum is a product (Kuenneth).  Copy j of L_1(1) in
L_1(1) + ... + L_1(1) acts on tensor factor j of T^n alone (on nothing when
r = 0, the trivial module), and the copies bracket to zero.  So
Lambda(g_1 + ... + g_n) (x) M_1 (x) ... (x) M_n is the tensor product of the
one-variable complexes Lambda(g_j) (x) M_j: moving each wedge factor next to
its module factor costs a Koszul sign, the bracket term has no cross
brackets, and a field of copy j acts on M_j only, so d becomes
sum_j (+-1) (x) ... (x) d_j (x) ... (x) 1.  Degrees and weights add, and
over the field Q the Kuenneth formula gives

  dim H_p(w) = sum over p_1 + ... + p_n = p, w_1 + ... + w_n = w of
               prod_j dim H_(p_j)(w_j)(L_1(1); M_j).

Every p_j and w_j is >= 0, so the window p <= p_max, w <= w_max of the sum
needs only the same window of each L_1(1) table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count
from math import comb

from ._enum import monomials_of_degree
from .exact import ResourceLimitError, rank_of_vectors
from .liealg import (
    FLAVOR_COORDINATE_SUM,
    AlgebraDescriptor,
    VFBasis,
    basis_of_weight,
    bracket_basis,
)
from .tensormod import ModuleDescriptor, _act_int, _letter_constants, graded_dimension

__all__ = [
    "homology_table",
    "DEFAULT_DIM_LIMIT",
]

DEFAULT_DIM_LIMIT = 20000


def _check_coefficients(alg: AlgebraDescriptor, desc: ModuleDescriptor):
    """Refuse a tensor module the complexes cannot act by: r >= 1 factors
    need L_d(1), d >= 1, or one factor per coordinate of the coordinate sum.
    r = 0, the empty tensor product, is the trivial module k and fits every
    algebra."""
    r, coordinate_sum = desc.r, alg.flavor == FLAVOR_COORDINATE_SUM
    if coordinate_sum and r not in (0, alg.n):
        raise ValueError("coordinatewise coefficients need one tensor factor per coordinate")
    if r and not coordinate_sum and (alg.n > 1 or alg.min_weight < 1):
        raise ValueError(
            "tensor coefficients support L_d(1) with d >= 1 or the coordinate-sum flavor only"
        )


class _Complex:
    """One window's chains as keys over the basis fields up to weight w_top;
    a boundary column is {row index: int}, scale times the exact column
    (scale = the common denominator of the coefficients' parameters).  The
    whole rule of the coefficients desc lives here: their basis in chains,
    their torus weight in torus and their action in act_scaled."""

    def __init__(self, alg: AlgebraDescriptor, desc: ModuleDescriptor, w_top: int):
        self.alg, self.desc, self.scale = alg, desc, desc.den
        self.fields, self.number, self.weights = [], {}, []
        for w in range(alg.min_weight, w_top + 1):
            for f in basis_of_weight(alg, w):
                self.number[f] = len(self.fields)
                self.fields.append(f)
                self.weights.append(w)
        self._brackets, self._actions = {}, {}

    def chains(self, p: int, w: int):
        """Keys of C_p(w): module-part weight ascending, then wedges in lex
        order of field number, then module monomials."""
        out = []
        for wa in range(p * self.alg.min_weight, w + 1):
            module_part = monomials_of_degree(self.desc.r, w - wa)
            if module_part:
                out.extend((wedge, expo) for wedge in self._wedges(p, wa) for expo in module_part)
        return out

    def _wedges(self, p: int, w: int):
        """Increasing p-tuples of field numbers with weight sum w.  Fields are
        sorted by weight, so the last one ranges over the fields of exactly
        the weight left, and a prefix stops once even `left` copies of the
        next field's weight overshoot."""
        if p <= 0:
            return [()] if p == 0 and w == 0 else []
        weights = self.weights
        out = []

        def rec(start, left, budget, prefix):
            if left == 1:
                lo = max(start, bisect_left(weights, budget))
                out.extend(prefix + (i,) for i in range(lo, bisect_right(weights, budget)))
                return
            for i in range(start, len(weights)):
                if left * weights[i] > budget:
                    break
                rec(i + 1, left - 1, budget - weights[i], prefix + (i,))

        rec(0, p, w, ())
        return out

    def torus(self, key):
        """Torus weight in Z^n of a chain, preserved by the boundary; the
        module degree lies on coordinate 0, the only one of L_d(1)."""
        wedge, expo = key
        t = [sum(expo)] + [0] * (self.alg.n - 1)
        for i in wedge:
            field = self.fields[i]
            for c, a in enumerate(field.exponent):
                t[c] += a - (c == field.direction)
        return tuple(t)

    def act_scaled(self, field: VFBasis, expo):
        """den times field . z^expo on L_d(1), as {exponent: int}: x^(k+1) d
        is e_k, which acts on every factor by tensormod's integer kernel with
        the constants of _letter_constants (letter 1 of the k-dilated
        algebra is e_k)."""
        k = field.weight
        den, (base,) = _letter_constants(self.desc, 1, k)
        return _act_int({expo: 1}, k, den, base)

    def _bracket(self, i, j):
        out = self._brackets.get((i, j))
        if out is None:
            out = self._brackets[i, j] = tuple(
                (self.number[f], c) for f, c in bracket_basis(self.fields[i], self.fields[j])
            )
        return out

    def _act(self, i, expo):
        out = self._actions.get((i, expo))
        if out is None:
            out = self._actions[i, expo] = tuple(self.act_scaled(self.fields[i], expo).items())
        return out

    def column(self, key, row_of):
        """scale * d(chain) over the rows {chain key: index} of row_of, which
        must hold every chain the boundary reaches: the whole slice below,
        or the block of the same torus weight.  A chain whose index is None
        is a dropped row: its entry is left out."""
        wedge, expo = key
        k = len(wedge)
        out = {}
        for i1 in range(k):
            for j1 in range(i1 + 1, k):
                sign = self.scale if (i1 + j1) % 2 == 0 else -self.scale
                rest = wedge[:i1] + wedge[i1 + 1 : j1] + wedge[j1 + 1 :]
                for f, c in self._bracket(wedge[i1], wedge[j1]):
                    pos = bisect_left(rest, f)
                    if pos < len(rest) and rest[pos] == f:
                        continue
                    row = row_of[rest[:pos] + (f,) + rest[pos:], expo]
                    out[row] = out.get(row, 0) + (sign if pos % 2 == 0 else -sign) * c
        for i1 in range(k):
            sign = -1 if i1 % 2 == 0 else 1
            rest = wedge[:i1] + wedge[i1 + 1 :]
            for new_expo, c in self._act(wedge[i1], expo):
                row = row_of[rest, new_expo]
                out[row] = out.get(row, 0) + sign * c
        return {row: c for row, c in out.items() if c and row is not None}


def _field_top(alg: AlgebraDescriptor, p: int, w: int) -> int:
    """Highest field weight in a chain of C_q(w), q <= p: w, plus p - 1 for
    W(n), whose weight -1 fields leave room for heavier ones."""
    return w + max(p - 1, 0) * max(-alg.min_weight, 0)


def _chain_dims(alg: AlgebraDescriptor, desc: ModuleDescriptor, p_top: int):
    """[dim C_p(w) for p <= p_top] for w = 0, 1, ..., counted without
    numbering a field or listing a chain.  subsets[q][s] counts the
    q-subsets of the fields up to weight top with weight sum s; the m fields
    of a new weight v (n C(v + n, n - 1), or n for Lsum) add C(m, k) ways to
    take k of them."""
    n = alg.n
    subsets = [{0: 1}] + [{} for _ in range(p_top)]
    top = alg.min_weight - 1
    for w in count():
        for v in range(top + 1, _field_top(alg, p_top, w) + 1):
            m = n if alg.flavor == FLAVOR_COORDINATE_SUM else n * comb(v + n, n - 1)
            for q in range(p_top, 0, -1):
                for k in range(1, q + 1):
                    ways, into = comb(m, k), subsets[q]
                    for s, c in subsets[q - k].items():
                        into[s + k * v] = into.get(s + k * v, 0) + c * ways
            top = v
        yield [
            sum(c * graded_dimension(desc, w - s) for s, c in subsets[p].items() if s <= w)
            for p in range(p_top + 1)
        ]


def homology_table(
    alg: AlgebraDescriptor,
    desc: ModuleDescriptor,
    p_max: int,
    w_max: int,
    dim_limit: int = DEFAULT_DIM_LIMIT,
):
    """Exact dims {(p, w): dim H_p(w)} for p <= p_max, w <= w_max, with
    coefficients the tensor module desc.

    The table is a finite window, never a completeness statement beyond it.
    Every chain slice of the window is counted before any field is numbered
    or any chain listed, and the first one larger than dim_limit, by weight
    and then degree, raises ResourceLimitError naming it.  The coordinate
    sum is then the product of its one-variable tables (Kuenneth, see the
    module docstring); every other algebra is ranked weight by weight.
    """
    _check_coefficients(alg, desc)
    for w, dims in zip(range(w_max + 1), _chain_dims(alg, desc, p_max + 1)):
        for p, dim in enumerate(dims):
            if dim > dim_limit:
                raise ResourceLimitError(
                    "chain slice (p=%d, w=%d) has dimension %d > limit %d"
                    % (p, w, dim, dim_limit)
                )
    if alg.flavor == FLAVOR_COORDINATE_SUM:
        return _kuenneth(alg.n, desc, p_max, w_max, dim_limit)
    cx = _Complex(alg, desc, _field_top(alg, p_max + 1, w_max))
    table = {}
    for w in range(w_max + 1):
        table.update(_weight_table(cx, p_max, w))
    return table


def _kuenneth(n: int, desc: ModuleDescriptor, p_max: int, w_max: int, dim_limit: int):
    """The table of the coordinate sum with coefficients desc: the product
    of the L_1(1) tables of its factors, T^1_(lambda_j, mu_j) for r = n and
    the trivial module for r = 0, one table per distinct factor."""
    factors = [ModuleDescriptor(1, (l,), (m,)) for l, m in zip(desc.lam, desc.mu)] or [desc] * n
    l1 = AlgebraDescriptor(1, d=1)
    tables = {f: homology_table(l1, f, p_max, w_max, dim_limit) for f in set(factors)}
    window = [(p, w) for p in range(p_max + 1) for w in range(w_max + 1)]
    table = {(0, 0): 1}  # the empty product: the zero algebra on k
    for f in factors:
        factor = tables[f]
        table = {
            (p, w): sum(
                table.get((p - q, w - v), 0) * factor[q, v]
                for q in range(p + 1)
                for v in range(w + 1)
            )
            for p, w in window
        }
    return table


def _weight_table(cx: _Complex, p_max: int, w: int):
    """{(p, w): dim H_p(w)} for p <= p_max at one weight.

    d_p on block t maps the columns C_p(t) to the rows C_(p-1)(t), and each
    ranked block keeps J(p, t), the indices of d_p's columns found
    independent, |J(p, t)| = rank d_p(t).  The columns of d_(p+1) on block
    t are then built on the rows C_p(t) minus J(p, t) only, which keeps
    their rank (compression; Bauer, Kerber & Reininghaus, "Clear and
    Compress", 2014; the one-step reduction lemma of algebraic Morse
    theory).  The lemma: for x in ker d_p, d_p[:, J] x_J = -d_p[:, not J]
    x_(not J), and the columns J are independent, so x_J is determined by
    the other coordinates; deleting the J coordinates is injective on
    ker d_p, which holds im d_(p+1) (d o d = 0).  The same argument applies
    to d_p with the rows J(p - 1, t) dropped: columns independent on fewer
    rows are independent on all of them, so the compressed ranks chain up
    in p.  J may come from the mod-p step, since columns independent mod p
    are independent over Q (some |J| x |J| minor is nonzero mod p, so it
    is nonzero over Z).  Injective on ker d_p, whose dimension is
    dim C_p(t) - rank d_p(t), the deletion is onto its target, so the row
    count is exactly that bound and no other bound is needed; the mod-p
    step stops pulling columns once it reaches min(rows, columns).

    A coordinate permutation s maps block t onto block s(t) and commutes
    with d up to sign, so only sorted blocks are ranked and the rest of
    each orbit reads their ranks.  The columns keep chain order, in which
    the mod-p pivots fill in least (see the module docstring).
    """
    blocks = []  # per p: {torus weight: [chain keys]}
    for p in range(p_max + 2):
        split = {}
        for key in cx.chains(p, w):
            split.setdefault(cx.torus(key), []).append(key)
        blocks.append(split)

    def rank(p, t):
        return len(kept.get((p, tuple(sorted(t))), ()))

    kept = {}  # (p, t): J(p, t)
    for p in range(1, p_max + 2):
        for t, cols in blocks[p].items():
            rows = blocks[p - 1].get(t)
            if rows and list(t) == sorted(t):
                dropped = kept.get((p - 1, t), ())
                free = count()
                row_of = {key: None if i in dropped else next(free) for i, key in enumerate(rows)}
                found = []
                rank_of_vectors(
                    (cx.column(key, row_of) for key in cols),
                    bound=min(len(rows) - len(dropped), len(cols)),
                    kept=found,
                )
                kept[p, t] = set(found)
    return {
        (p, w): sum(
            len(chains) - rank(p, t) - rank(p + 1, t)
            for t, chains in blocks[p].items()
        )
        for p in range(p_max + 1)
    }
