"""Associated-graded presentations, module Groebner bases, Hilbert series.

Filtering the enveloping algebra by word length identifies the associated
graded of a tensor module, generated by a finite monomial set S, with a
quotient of a free module over the commutative polynomial ring
k[g_1, ..., g_r], deg g_i = i.  Relations are harvested exactly, one weight
slice at a time: a word column that becomes linearly dependent on earlier
columns yields the maximal-length part of its dependency as a homogeneous
relation of the graded module.  A position-over-term Groebner basis of the
relation module then turns standard-monomial counting into a closed-form
Hilbert series with denominator dividing prod (1 - t^i).  Its numerator and
denominator are integer coefficient lists, multiplied, summed and divided by
the toolkit in ``exact``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

from .exact import (
    Echelon,
    _eliminate,
    _poly_add,
    _poly_mul,
    _series_quotient,
    _strip_gcd_pair,
    _to_int_vector,
    interpolate,
)
from .tensormod import ModuleDescriptor, word_vectors

__all__ = [
    "PolyModulePresentation",
    "RationalSeries",
    "one_minus_t_powers",
    "associated_graded_presentation",
    "module_groebner",
    "groebner_self_test",
    "hilbert_series",
    "partial_sum_polynomial",
]


@dataclass
class PolyModulePresentation:
    """Free module presentation over k[g_1..g_r], deg g_i = i: generator
    weights plus a list of relation vectors.

    A relation vector is a sparse integer dict {(slot, g-exponent): c}, the
    coefficient c of g^exponent in generator slot `slot`.  Harvested and
    Groebner relations are primitive with a positive leading coefficient
    under the position-over-term order below.

    A harvested presentation also records, for each weight w up to its
    cutoff, the harvest rank: the number of word columns at w minus the
    number of relations harvested at w.
    """

    r: int
    generator_weights: tuple
    relations: list
    harvest_ranks: tuple = ()


def associated_graded_presentation(
    descriptor: ModuleDescriptor, S, cutoff: int
) -> PolyModulePresentation:
    """Presentation of the associated graded module on the generators S,
    with relations harvested from all weight slices <= cutoff.

    Within a slice, columns g^b * m_s are inserted in order of increasing
    word length; a dependent column's dependency is truncated to its
    maximal-length terms (lower lengths vanish in the graded piece), so the
    harvested relations generate the graded relation module exactly on the
    verified window.  Columns come from word_vectors, scaled by
    den**length; a truncated dependency has a single length, so it is a
    multiple of the exact one and normalizes to the same relation.

    The relations harvested at w are independent (each ends in its own
    column) and the relation module they generate contains their span, so
    the presented module has dimension at most the harvest rank at every
    weight, with equality throughout the window exactly when the harvest is
    closed under the g_i there.
    """
    gens = sorted(tuple(int(a) for a in s) for s in S)
    gen_weights = tuple(sum(s) for s in gens)
    relations = []
    ranks = []
    for w in range(cutoff + 1):
        columns = []
        for j, s in enumerate(gens):
            for (_, b), vec in word_vectors(descriptor, [s], w):
                columns.append((sum(b), b, j, vec))
        columns.sort(key=lambda col: col[:3])
        ech = Echelon(track=True)
        for length, _, _, vec in columns:
            combo = ech.insert(vec)
            if combo is not None:
                top = {}
                for i, c in combo.items():
                    llen, lb, lj, _ = columns[i]
                    if llen == length:
                        top[lj, lb] = c
                relations.append(_normalize(top))
        ranks.append(ech.rank)
    return PolyModulePresentation(descriptor.r, gen_weights, relations, tuple(ranks))


# ---------------------------------------------------------------------------
# module Groebner bases (position over term, weighted deg-lex)


def _wdeg(expo):
    """Weighted degree of a g-exponent, deg g_i = i."""
    return sum((i + 1) * a for i, a in enumerate(expo))


def _term_key(term):
    # positions: earlier generator wins; then weighted degree, then lex
    pos, expo = term
    return (-pos, _wdeg(expo), expo)


def _lead(vec):
    """(slot, exponent) of the maximal term of a nonzero relation vector."""
    return max(vec, key=_term_key)


def _normalize(vec):
    """A nonzero integer relation vector divided by its content, signed so
    that its leading coefficient is positive."""
    g = math.gcd(*vec.values())
    if vec[_lead(vec)] < 0:
        g = -g
    return {term: c // g for term, c in vec.items()}


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _times(vec, expo):
    """g^expo times a relation vector."""
    return {
        (pos, tuple(a + b for a, b in zip(e, expo))): c for (pos, e), c in vec.items()
    }


def _s_vector(bi, bj):
    """Integer S-vector of two basis entries (vec, lead) that lead in the
    same position."""
    (vi, (pos, ei)), (vj, (_, ej)) = bi, bj
    lcm = tuple(max(a, b) for a, b in zip(ei, ej))
    return _eliminate(
        _times(vi, tuple(a - b for a, b in zip(lcm, ei))),
        _times(vj, tuple(a - b for a, b in zip(lcm, ej))),
        (pos, lcm),
    )[0]


def _reduce_vector(vec, basis):
    """Full normal form of an integer vector against basis entries
    (vec, lead), up to a nonzero integer multiple.

    Each step is the echelon's ``_eliminate``; then the content the working
    vector shares with the part already reduced, which is scaled along with
    it, is stripped.
    """
    work, done = dict(vec), {}
    while work:
        lt = _lead(work)
        pos, expo = lt
        for bvec, (bpos, bexpo) in basis:
            if bpos == pos and _divides(bexpo, expo):
                row = _times(bvec, tuple(x - y for x, y in zip(expo, bexpo)))
                work, scale, _ = _eliminate(work, row, lt)
                done = {term: c * scale for term, c in done.items()}
                _strip_gcd_pair(work, done)
                break
        else:
            done[lt] = work.pop(lt)
    return done


def module_groebner(pres: PolyModulePresentation) -> PolyModulePresentation:
    """Reduced Groebner basis of the relation module, built reduce-first.

    Order: position over term (earlier generators dominate), monomials by
    weighted degree (deg g_i = i) then lex.  Input relations may carry
    Fraction values; each is scaled to integers first.  Input relations and
    S-pairs wait in one queue, lowest weight first (the weight of the
    leading term, generator weight included), inputs before S-pairs of the
    same weight and inputs in their given order; a weight-homogeneous
    harvest is thus read in harvest order.  Each item taken from the queue
    is reduced to its normal form against the basis built so far.  A zero
    normal form means the relation already lies in the module of that
    basis, and it is dropped: it never joins the basis and forms no S-pair.
    A nonzero one joins the basis and queues its S-pairs with the entries
    leading in the same position; under position over term no other
    S-vector arises.  Harvested relations are mostly g-multiples of earlier
    ones, so most are dropped.  Taking low weights first keeps a high-weight
    remainder from joining before the lower-weight relations that would
    reduce it.

    The basis is then minimalized, inter-reduced, normalized and sorted by
    leading term.  A module has one reduced Groebner basis for a given
    order, up to the scale of its elements, and _normalize fixes that
    scale, so the output depends only on the module the relations
    generate, not on their order, their scale or how they were found.
    """
    gen_weights = pres.generator_weights

    def weight(pos, expo):
        return gen_weights[pos] + _wdeg(expo)

    relations = [_to_int_vector(vec)[0] for vec in pres.relations]
    # (weight, 0, input index) or (weight, 1, (i, j)) for an S-pair
    queue = [(weight(*_lead(vec)), 0, seq) for seq, vec in enumerate(relations) if vec]
    heapq.heapify(queue)
    basis = []
    while queue:
        _, kind, key = heapq.heappop(queue)
        if kind == 0:
            vec = relations[key]
        else:
            vec = _s_vector(basis[key[0]], basis[key[1]])
        nf = _reduce_vector(vec, basis)
        if not nf:
            continue
        nf = _normalize(nf)
        pos, expo = _lead(nf)
        for m, (_, (bpos, bexpo)) in enumerate(basis):
            if bpos == pos:
                lcm = tuple(max(x, y) for x, y in zip(expo, bexpo))
                heapq.heappush(queue, (weight(pos, lcm), 1, (m, len(basis))))
        basis.append((nf, (pos, expo)))
    # minimal basis: each entry is a normal form against every earlier one,
    # so no earlier leading term divides a later one; drop an entry whose
    # leading term a later entry's divides
    minimal = [
        (vec, (pos, expo))
        for idx, (vec, (pos, expo)) in enumerate(basis)
        if not any(bpos == pos and _divides(bexpo, expo) for _, (bpos, bexpo) in basis[idx + 1 :])
    ]
    minimal.sort(key=lambda entry: (entry[1][0], _wdeg(entry[1][1]), entry[1][1]))
    out = [
        _normalize(_reduce_vector(vec, minimal[:i] + minimal[i + 1 :]))
        for i, (vec, _) in enumerate(minimal)
    ]
    return PolyModulePresentation(pres.r, gen_weights, out)


def groebner_self_test(pres: PolyModulePresentation) -> bool:
    """Confluence check on integer relations, as module_groebner returns
    them: every S-vector of the basis reduces to zero."""
    basis = [(vec, _lead(vec)) for vec in pres.relations if vec]
    return not any(
        _reduce_vector(_s_vector(bi, bj), basis)
        for bi, bj in combinations(basis, 2)
        if bi[1][0] == bj[1][0]
    )


# ---------------------------------------------------------------------------
# Hilbert series


@dataclass
class RationalSeries:
    """num(t)/den(t) as ascending integer coefficient lists with no trailing
    zeros (the zero numerator is [0]) and den[0] == 1, so the power series
    has integer coefficients."""

    num: list
    den: list

    def expand(self, upto: int):
        """Power-series coefficients h_0..h_upto, as ints."""
        if not self.den or self.den[0] != 1:
            raise ValueError("denominator must have constant term 1")
        return _series_quotient(self.num, self.den, upto + 1)

    def to_dict(self):
        return {"num": list(self.num), "den": list(self.den)}


def one_minus_t_powers(weights):
    """Ascending integer coefficients of prod_(w in weights) (1 - t^w), w >= 1."""
    out = [1]
    for w in weights:
        out = _poly_mul([1] + [0] * (w - 1) + [-1], out)
    return out


def _divide(a, b):
    """The quotient a/b of integer coefficient lists, or None when b does not
    divide a.  Needs b[0] == 1 and a nonzero last coefficient of b: the
    quotient's len(a) - len(b) + 1 power-series coefficients are integers,
    and b divides a exactly when b times them gives back a."""
    q = _series_quotient(a, b, len(a) - len(b) + 1)
    if _poly_add(a, _poly_mul([-x for x in b], q)):
        return None
    return q or [0]


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """The cyclotomic polynomial Phi_d signed to constant term 1, that is
    1 - t for d = 1: 1 - t^d divided by Phi_e for every proper divisor e."""
    p = one_minus_t_powers([d])
    for e in range(1, d):
        if d % e == 0:
            p = _divide(p, _cyclotomic(e))
    return tuple(p)


def _lowest_terms(num, r):
    """num / prod_(i<=r) (1 - t^i) in lowest terms, as (num, den).

    1 - t^i is the product of Phi_d over the divisors d of i, so the
    denominator is prod_(d<=r) Phi_d^(r//d).  Each Phi_d is irreducible over
    Q, so the gcd of num and the denominator is prod Phi_d^(k_d), where k_d
    is the number of times Phi_d divides num, capped at r//d.  Dividing
    Phi_d out of both while it divides num, at most r//d times, thus leaves
    lowest terms.  Every factor is an integer polynomial with constant term
    1, so the quotients stay integral and den keeps den[0] == 1; den, a
    product of primitive polynomials, is primitive (Gauss), so the pair needs
    no sign or content fix-up.
    """
    den = one_minus_t_powers(range(1, r + 1))
    for d in range(1, r + 1):
        phi = _cyclotomic(d)
        for _ in range(r // d):
            q = _divide(num, phi)
            if q is None:
                break
            num, den = q, _divide(den, phi)
    return num, den


def _monomial_quotient_numerator(gens):
    """Numerator of Hilbert(k[g]/I) over prod(1 - t^i) for the monomial
    ideal I generated by gens (exponent tuples, deg g_i = i)."""
    gens = _minimalize(gens)

    @lru_cache(maxsize=None)
    def rec(frozen):
        gset = sorted(frozen)
        if not gset:
            return (1,)
        if all(e == 0 for e in gset[0]):
            return (0,)
        pick, rest = gset[-1], tuple(gset[:-1])
        colon = _minimalize([tuple(max(a - b, 0) for a, b in zip(g, pick)) for g in rest])
        sub = rec(tuple(colon))  # _minimalize sorts
        return tuple(_poly_add(rec(rest), [0] * _wdeg(pick) + [-c for c in sub]))

    return list(rec(tuple(sorted(gens))))


def _minimalize(gens):
    gens = sorted(set(tuple(g) for g in gens))
    out = []
    for g in gens:
        if not any(_divides(h, g) for h in out):
            out = [h for h in out if not _divides(g, h)]
            out.append(g)
    return sorted(out)


def hilbert_series(pres: PolyModulePresentation) -> RationalSeries:
    """Weighted Hilbert series of the presented module by standard-monomial
    counting: complement of the leading-term module per generator slot over
    the common denominator prod(1 - t^i), deg g_i = i, with an integer
    numerator, then put in lowest terms by dividing out the cyclotomic
    factors of the denominator that divide the numerator (_lowest_terms).
    Relations must form a Groebner basis for the position-over-term weighted
    deg-lex order (run module_groebner first)."""
    gweights = pres.generator_weights
    lead_by_pos = {j: [] for j in range(len(gweights))}
    for vec in pres.relations:
        if vec:
            pos, expo = _lead(vec)
            lead_by_pos[pos].append(expo)
    num = _poly_add(
        *([0] * gw + _monomial_quotient_numerator(lead_by_pos[j]) for j, gw in enumerate(gweights))
    )
    return RationalSeries(*_lowest_terms(num or [0], pres.r))


# ---------------------------------------------------------------------------
# partial sums


def partial_sum_polynomial(series: RationalSeries, window: int):
    """Eventual polynomial of the partial sums f(n) = sum_(k<=n) h_k.

    Detects stabilization by finite differences on the tail of the window:
    when the last four d-th differences agree, the last d + 4 partial sums lie
    on one polynomial of degree <= d, the one through the first d + 1 of them.
    Returns (coefficients ascending, d, c) where the leading term is
    c * n^d / d! with integer c.  Raises ValueError when the window is too
    small to stabilize.
    """
    if window < 4:
        raise ValueError("window too small")
    sums = list(accumulate(series.expand(window)))
    row, d = sums, 0  # row: the d-th differences of sums
    while len(row) >= 4:
        if all(x == row[-1] for x in row[-4:]):
            x0 = window - d - 3
            coeffs = interpolate(sums[x0 : x0 + d + 1], x0)
            coeffs += [Fraction(0)] * (d + 1 - len(coeffs))
            c = coeffs[d] * math.factorial(d)
            if c.denominator != 1:
                raise ValueError("leading coefficient %s is not integral" % c)
            return coeffs, d, int(c)
        row, d = [b - a for a, b in zip(row, row[1:])], d + 1
    raise ValueError("window %d too small for partial sums to stabilize" % window)
