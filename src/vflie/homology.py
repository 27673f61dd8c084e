"""Chevalley-Eilenberg homology of the vector-field algebras, weight slice
by weight slice.

Chains are C_p = Lambda^p(g) (x) M with the boundary

  d(x_1 ^ ... ^ x_p (x) m) =
      sum_(i<j) (-1)^(i+j) [x_i, x_j] ^ ... x_i^ ... x_j^ ... (x) m
    + sum_i    (-1)^i     x_1 ^ ... x_i^ ... ^ x_p (x) x_i . m.

Both terms preserve total weight (wedge weight plus module weight), so every
homology space splits into finite-dimensional weight slices.  They also
preserve the finer torus weight in Z^n: the sum of a - e_i over the wedge
fields x^a d_i plus the module part (0 for trivial coefficients, |a| for
tensor coefficients of L_d(1), a for coordinatewise ones).  So each slice
splits further into blocks, each its own subcomplex, and

  dim H_p(w) = sum over blocks t of dim C_p(t) - rank d_p(t) - rank d_(p+1)(t).

A window numbers its basis fields in sort order, so a chain is the integer
key (increasing tuple of field numbers, module exponent).  Chains are
enumerated, split and differentiated as keys.

A permutation s of the coordinates is an automorphism of W(n), L_d(n) and
the coordinate sum, and of tensor coefficients on the latter when it fixes
every pair (lambda_i, mu_i), because it permutes the tensor factors too.  It
maps the chains of torus weight t onto those of weight s(t), each up to the
sign of re-sorting its wedge, and commutes with d; so blocks t and s(t) have
the same ranks, over Q and mod every prime.  Only the canonical block of each
orbit, t sorted within each class of exchangeable coordinates, is ranked,
and the other blocks of its orbit share its ranks.

Block ranks are taken mod p first (``exact.rank_mod_p``, a lower bound).
Because d o d = 0, rank d_p(t) <= dim C_(p-1)(t) - rank d_(p-1)(t) and
rank d_p(t) <= dim C_p(t) - rank d_(p+1)(t); a mod-p rank that meets the
upper bound these give with its neighbours' mod-p ranks is exact.  Only the
blocks where the bound stays open are ranked by exact elimination, so every
table entry is exact.

Both eliminations pivot on the largest row key, so the orders of rows and
columns set the fill-in, though never the rank.  Mod p the columns go in
chain order: sparsest-column-first multiplied the row-operation entries
(over all blocks of L1:1 p <= 4, w <= 40: 1210574 against 211675; L2:1,
same window: 494917 against 145534; L1:2 p <= 3, w <= 8: 659184 against
579067, and 331429 once mirror blocks are skipped).  The exact fallback
renumbers rows so that the sparsest are pivoted first and inserts columns
by their leading row (``_fill_in_order``): on the open blocks of L1:2
p <= 4, w <= 8 that cuts the entries its row operations touch from
10879916 to 3873543.  Mod p the same renumbering slowed the n = 1 windows.

Supported coefficients: the trivial module for any flavor; tensor modules
with the diagonal one-variable action for L_d(1), d >= 1; and tensor modules
with the coordinatewise action for the coordinate-sum flavor.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass

from ._enum import monomials_of_degree
from .exact import rank_mod_p, rank_of_vectors
from .liealg import (
    FLAVOR_COORDINATE_SUM,
    AlgebraDescriptor,
    VFBasis,
    basis_of_weight,
    bracket_basis,
)
from .spanning import ResourceLimitError
from .tensormod import ModuleDescriptor

__all__ = [
    "TrivialCoefficients",
    "TensorCoefficients",
    "homology_table",
    "table_to_csv",
    "DEFAULT_DIM_LIMIT",
]

DEFAULT_DIM_LIMIT = 20000


@dataclass(frozen=True)
class TrivialCoefficients:
    """The one-dimensional trivial module k, concentrated in weight 0."""

    scale = 1

    def validate(self, alg: AlgebraDescriptor):
        return None

    def basis_at_weight(self, w: int):
        return [()] if w == 0 else []

    def act_scaled(self, field: VFBasis, expo):
        return {}

    def torus_weight(self, n: int, expo):
        return (0,) * n


@dataclass(frozen=True)
class TensorCoefficients:
    """A tensor module as coefficients.

    For L_d(1) (d >= 1) the whole one-variable algebra acts diagonally; for
    the coordinate-sum flavor each summand acts on its own tensor factor,
    which requires one factor per coordinate (r = n).  Monomial basis indexed
    by exponent vectors; module weight = total degree.
    """

    descriptor: ModuleDescriptor

    def validate(self, alg: AlgebraDescriptor):
        if alg.flavor == FLAVOR_COORDINATE_SUM:
            if self.descriptor.r != alg.n:
                raise ValueError(
                    "coordinatewise coefficients need one tensor factor per coordinate"
                )
            return None
        if alg.n == 1 and alg.min_weight >= 1:
            return None
        raise ValueError(
            "tensor coefficients support L_d(1) with d >= 1 or the "
            "coordinate-sum flavor only"
        )

    def basis_at_weight(self, w: int):
        if w < 0:
            return []
        return monomials_of_degree(self.descriptor.r, w)

    @property
    def scale(self) -> int:
        """Common denominator of the parameters: act_scaled is integral."""
        return self.descriptor.den

    def act_scaled(self, field: VFBasis, expo):
        """scale times field . z^expo, as {exponent: int}: a one-variable
        field e_k acts on every tensor factor, a coordinate field
        x_i^(k+1) d_i on factor i only."""
        desc = self.descriptor
        k = field.weight
        out = {}
        for i in range(desc.r) if field.n == 1 else (field.direction,):
            c = int(desc.den * (expo[i] + desc.mu[i] + (k + 1) * desc.lam[i]))
            if c:
                out[expo[:i] + (expo[i] + k,) + expo[i + 1 :]] = c
        return out

    def torus_weight(self, n: int, expo):
        """Torus weight of z^expo in Z^n: (|expo|,) under the diagonal
        one-variable action, expo under the coordinatewise one."""
        return (sum(expo),) if n == 1 else tuple(expo)


class _Complex:
    """One window's chains as keys over the basis fields up to weight w_top;
    a boundary column is {row index: int}, scale times the exact column
    (scale = the coefficients' common denominator)."""

    def __init__(self, alg: AlgebraDescriptor, coeffs, w_top: int):
        coeffs.validate(alg)
        self.alg, self.coeffs, self.scale = alg, coeffs, coeffs.scale
        self.fields, self.number, self.weights = [], {}, []
        self.top = alg.min_weight - 1
        self.grow(w_top)
        self._brackets = {}
        self._actions = {}
        self._classes = _exchangeable(alg.n, coeffs)

    def grow(self, w_top: int):
        """Number the basis fields of weight up to w_top.  Fields are numbered
        in weight order, so heavier ones extend the numbering and leave every
        chain key and cached bracket or action as it was."""
        for w in range(self.top + 1, w_top + 1):
            for f in basis_of_weight(self.alg, w):
                self.number[f] = len(self.fields)
                self.fields.append(f)
                self.weights.append(w)
        self.top = max(self.top, w_top)

    def chains(self, p: int, w: int):
        """Keys of C_p(w): module-part weight ascending, then wedges in lex
        order of field number, then module monomials."""
        out = []
        for wa in range(p * self.alg.min_weight, w + 1):
            module_part = self.coeffs.basis_at_weight(w - wa)
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
        """Torus weight in Z^n of a chain, preserved by the boundary."""
        wedge, expo = key
        t = list(self.coeffs.torus_weight(self.alg.n, expo))
        for i in wedge:
            field = self.fields[i]
            for c, a in enumerate(field.exponent):
                t[c] += a - (c == field.direction)
        return tuple(t)

    def canonical(self, t):
        """The representative of t's orbit under the coordinate permutations
        that fix the window: t sorted within each class of exchangeable
        coordinates."""
        if not self._classes:
            return t
        out = list(t)
        for cls in self._classes:
            for i, a in zip(cls, sorted(t[i] for i in cls)):
                out[i] = a
        return tuple(out)

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
            out = self._actions[i, expo] = tuple(
                self.coeffs.act_scaled(self.fields[i], expo).items()
            )
        return out

    def column(self, key, row_of):
        """scale * d(chain) over the rows {chain key: index} of row_of, which
        must hold every chain the boundary reaches: the whole slice below,
        or the block of the same torus weight."""
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
        return {row: c for row, c in out.items() if c}


def _exchangeable(n: int, coeffs):
    """Classes of at least two coordinates that permute freely: all n for
    trivial coefficients, those with equal (lambda_i, mu_i) for tensor ones
    (one factor per coordinate on the coordinate sum; on L_d(1), n = 1), and
    none for any other coefficients."""
    if isinstance(coeffs, TrivialCoefficients):
        labels = [None] * n
    elif isinstance(coeffs, TensorCoefficients):
        labels = list(zip(coeffs.descriptor.lam, coeffs.descriptor.mu))[:n]
    else:
        return []
    classes = {}
    for i, label in enumerate(labels):
        classes.setdefault(label, []).append(i)
    return [cls for cls in classes.values() if len(cls) > 1]


def _field_top(alg: AlgebraDescriptor, p: int, w: int) -> int:
    """Highest field weight in a chain of C_q(w), q <= p: w, plus p - 1 for
    W(n), whose weight -1 fields leave room for heavier ones."""
    return w + max(p - 1, 0) * max(-alg.min_weight, 0)


def homology_table(
    alg: AlgebraDescriptor,
    coeffs,
    p_max: int,
    w_max: int,
    dim_limit: int = DEFAULT_DIM_LIMIT,
):
    """Exact dims {(p, w): dim H_p(w)} for p <= p_max, w <= w_max.

    The table is a finite window, never a completeness statement beyond it.
    Weights are handled one at a time, and the field pool grows with the
    weight; a chain slice larger than dim_limit raises ResourceLimitError
    naming the slice before any rank at its weight is taken and before any
    heavier field is numbered.
    """
    cx = _Complex(alg, coeffs, _field_top(alg, p_max + 1, 0))
    table = {}
    for w in range(w_max + 1):
        cx.grow(_field_top(alg, p_max + 1, w))
        table.update(_weight_table(cx, p_max, w, dim_limit))
    return table


def _weight_table(cx: _Complex, p_max: int, w: int, dim_limit: int):
    """{(p, w): dim H_p(w)} for p <= p_max at one weight."""
    blocks = []  # per p: {torus weight: [chain keys]}
    for p in range(p_max + 2):
        chains = cx.chains(p, w)
        if len(chains) > dim_limit:
            raise ResourceLimitError(
                "chain slice (p=%d, w=%d) has dimension %d > limit %d"
                % (p, w, len(chains), dim_limit)
            )
        split = {}
        for key in chains:
            split.setdefault(cx.torus(key), []).append(key)
        blocks.append(split)

    def dim(p, t):
        return len(blocks[p].get(t, ())) if p < len(blocks) else 0

    def rank(p, t):
        return ranks.get((p, t), 0)

    # d_p on block t maps the columns C_p(t) to the rows C_(p-1)(t).  A
    # coordinate permutation s that fixes the window maps block t onto block
    # s(t) and commutes with d up to sign, so only canonical blocks are
    # ranked and the rest of each orbit reads their ranks.  Mod-p ranks go
    # up in p, each stopping at the bound the rank below gives; a rank that
    # reaches its bound is exact.  The columns keep chain order, in which
    # the mod-p pivots fill in least (see the module docstring).
    canonical = {t: cx.canonical(t) for split in blocks for t in split}
    families, ranks = {}, {}
    for p in range(1, p_max + 2):
        for t, cols in blocks[p].items():
            rows = blocks[p - 1].get(t)
            if rows and canonical[t] == t:
                row_of = {key: i for i, key in enumerate(rows)}
                family = [cx.column(key, row_of) for key in cols]
                families[p, t] = family
                ranks[p, t] = rank_mod_p(family, limit=min(len(rows) - rank(p - 1, t), len(cols)))
    open_blocks = [
        (p, t)
        for (p, t) in families
        if rank(p, t) < min(dim(p - 1, t) - rank(p - 1, t), dim(p, t) - rank(p + 1, t))
    ]
    ranks.update((b, rank_of_vectors(_fill_in_order(families[b]))) for b in open_blocks)
    return {
        (p, w): sum(
            len(chains) - rank(p, canonical[t]) - rank(p + 1, canonical[t])
            for t, chains in blocks[p].items()
        )
        for p in range(p_max + 1)
    }


def _fill_in_order(family):
    """The family with its row keys renumbered by (-occurrences, key), so the
    sparsest rows get the largest keys and are pivoted on first, and its
    vectors sorted by their largest new key: a vector whose leading key no
    earlier vector has becomes a pivot row with no reduction."""
    count = Counter(k for vec in family for k in vec)
    number = {k: i for i, k in enumerate(sorted(count, key=lambda k: (-count[k], k)))}
    family = [{number[k]: c for k, c in vec.items()} for vec in family]
    return sorted(family, key=lambda vec: max(vec, default=-1))


def table_to_csv(table, p_max: int, w_max: int) -> str:
    """CSV rendering: one row per homological degree, one column per weight."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p\\w"] + [str(w) for w in range(w_max + 1)])
    for p in range(p_max + 1):
        writer.writerow([str(p)] + [str(table[(p, w)]) for w in range(w_max + 1)])
    return buf.getvalue()

