"""Tensor modules over the one-variable algebras and their weight theory.

T_(lambda, mu) is the rank-one module k[z] z^mu d^(-lambda) with
e_k . z^m (z^mu d^(-lambda)) = (m + mu + (k+1) lambda) z^(m+k) (z^mu d^(-lambda)).

The r-fold tensor product T^r_(lambdabar, mubar) carries the diagonal action

    e_k . z^abar = sum_i (a_i + mu_i + (k+1) lambda_i) z_i^k z^abar,

which raises weight by exactly k.  Monomials are indexed by their exponent
vector abar; the ground monomial z^mubar d^(-lambdabar) is implicit.  The
parameters may be arbitrary rationals.

Two representations of the action live here:

* _act_int, den * e_k on integer vectors keyed by exponent tuple, is the
  one word-action kernel.  word_vectors, behind every word family, scales
  the parameters by their common denominator den: a word of length n
  yields den**n times its exact vector, which changes no rank, span or
  primitive relation.  spanning.power_basis_matrix multiplies by the power
  sums p_k with it (den = 0, every base 1), specht.closure_basis
  applies the ladder operators D_k, which are e_k on T^n with
  lambda = mu = 0 (den = 1, every base 0).  Homology's coefficient action
  on L_d(1) is the same kernel, with the integers of _letter_constants.
* ModuleElement, a {abar: Fraction} combination, with act_e, e_k on it over
  Q, is the independent reference that the kernel is checked against.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import product

from ._enum import binom, bounded_tails
from .exact import format_rat

__all__ = [
    "ModuleDescriptor",
    "ModuleElement",
    "WeightVector",
    "act_e",
    "word_vectors",
    "weight_support",
    "decompose_coinduced",
    "graded_dimension",
]


class ModuleDescriptor(namedtuple("ModuleDescriptor", "r lam mu")):
    """Parameters (r, lambdabar, mubar) of a tensor module T^r; lam and mu
    are stored as tuples of Fractions."""

    __slots__ = ()

    def __new__(cls, r, lam, mu):
        if r < 0:
            raise ValueError("rank must be >= 0")
        if len(lam) != r or len(mu) != r:
            raise ValueError("parameter vectors must have length r")
        return super().__new__(
            cls, r, tuple(Fraction(x) for x in lam), tuple(Fraction(x) for x in mu)
        )

    @property
    def den(self) -> int:
        """Common denominator of lambdabar and mubar."""
        return math.lcm(*(x.denominator for x in self.lam + self.mu))

    def to_dict(self):
        return {
            "r": self.r,
            "lambda": [format_rat(x) for x in self.lam],
            "mu": [format_rat(x) for x in self.mu],
        }


class ModuleElement:
    """Finite linear combination of monomials z^abar in a fixed T^r."""

    __slots__ = ("descriptor", "terms")

    def __init__(self, descriptor: ModuleDescriptor, terms=None):
        self.descriptor = descriptor
        self.terms = {}
        if terms:
            for expo, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                expo = tuple(int(a) for a in expo)
                if len(expo) != descriptor.r or any(a < 0 for a in expo):
                    raise ValueError("bad monomial exponent %r" % (expo,))
                self.terms[expo] = self.terms.get(expo, Fraction(0)) + c
                if self.terms[expo] == 0:
                    del self.terms[expo]


def act_e(k: int, m: ModuleElement) -> ModuleElement:
    """Diagonal action of e_k, k >= 1; raises weight by exactly k."""
    if k < 1:
        raise ValueError("act_e requires k >= 1 (e_0 and e_-1 are excluded)")
    desc = m.descriptor
    lam, mu = desc.lam, desc.mu
    terms = {}
    for expo, coeff in m.terms.items():
        for i in range(desc.r):
            factor = expo[i] + mu[i] + (k + 1) * lam[i]
            if factor == 0:
                continue
            up = list(expo)
            up[i] += k
            key = tuple(up)
            s = terms.get(key, Fraction(0)) + coeff * factor
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
    out = ModuleElement(desc)
    out.terms = terms
    return out


def _letter_constants(desc: ModuleDescriptor, letters: int, d: int = 1):
    """den and, per letter k = 1..letters, the integers
    base_i = den * (mu_i + (kd+1) lambda_i): den * e_(kd) multiplies z^abar
    by den * a_i + base_i into z_i^(kd) z^abar."""
    den = desc.den
    return den, [
        tuple(int(den * (m + (k * d + 1) * l)) for l, m in zip(desc.lam, desc.mu))
        for k in range(1, letters + 1)
    ]


def _act_int(vec, step, den, base):
    """den * e_step on an integer vector {abar: int}: each z^abar goes to
    sum_i (den * a_i + base_i) z_i^step z^abar.  The one kernel behind the
    word families and homology's coefficients (base from
    _letter_constants), the power sums p_step (den = 0, base all 1) and the
    ladder operators D_step of the substitution closure (den = 1, base all
    0)."""
    out = {}
    for expo, c in vec.items():
        for i, b in enumerate(base):
            f = den * expo[i] + b
            if f:
                key = expo[:i] + (expo[i] + step,) + expo[i + 1 :]
                s = out.get(key, 0) + c * f
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def word_vectors(desc: ModuleDescriptor, sources, w: int, d: int = 1):
    """Labelled integer vectors of the weight-w word family of T^r.

    For each source exponent a, in the given order (sources=None: the tail
    monomials z^a, a_i < i, of weight <= w, by weight then lex), and each
    b with d * sum(i * b_i) == w - |a|, lex increasing, yields
    ((a, b), {abar: int}): den**sum(b) times the exact expansion of
    e_d^(b_1) ... e_rd^(b_r) z^a, with den = desc.den.  The words of one
    source are grown depth-first from their rightmost letter, so every
    distinct word suffix is computed by exactly one integer action and
    shared by all the words that end in it.
    """
    r = desc.r
    den, bases = _letter_constants(desc, r, d)
    if sources is None:
        sources = [a for j in range(w + 1) for a in bounded_tails(r, j)]
    out = []

    def grow(k, rem, vec, suffix):
        # suffix = (b_(k+1), ..., b_r); letters k, k-1, ..., 1 remain
        if k == 0:
            if rem == 0:
                words.append((suffix, vec))
            return
        for c in range(rem // k + 1):
            if c:
                vec = _act_int(vec, k * d, den, bases[k - 1])
            grow(k - 1, rem - k * c, vec, (c,) + suffix)

    for a in map(tuple, sources):
        rem = w - sum(a)
        if rem >= 0 and rem % d == 0:
            words = []
            grow(r, rem // d, {a: 1}, ())
            out.extend(((a, b), vec) for b, vec in sorted(words, key=lambda bv: bv[0]))
    return out


def graded_dimension(descriptor: ModuleDescriptor, w: int) -> int:
    """Dimension of the weight-w slice of T^r: binom(w+r-1, r-1)."""
    if w < 0:
        return 0
    if descriptor.r == 0:
        return 1 if w == 0 else 0
    return binom(w + descriptor.r - 1, descriptor.r - 1)


# ---------------------------------------------------------------------------
# weight decomposition of coinduced modules


class WeightVector(namedtuple("WeightVector", "alpha multiplicity")):
    """An integral gl_n weight with its multiplicity."""

    __slots__ = ()


def _check_dominant(lam, n):
    lam = tuple(int(x) for x in lam)
    if not lam:
        raise ValueError("weight must be non-empty")
    if len(lam) != n:
        raise ValueError("weight must have length n")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValueError("weight must be dominant (weakly decreasing)")
    return lam


def weight_support(lam, n: int):
    """Weights of the irreducible gl_n module V_lam with multiplicities.

    Counts the triangular interlacing patterns with top row lam, one row at
    a time: a row of length k is followed by every row of length k - 1
    that interlaces it, and the weight reads off the row-sum differences,
    alpha_k = s_k - s_(k-1).  Patterns that agree on their last row and on
    the weight read so far are counted together, so no step recurses.
    Output is sorted lexicographically decreasing and the multiplicities
    sum to dim V_lam.
    """
    lam = _check_dominant(lam, n)
    # {(last row, (alpha_(k+1), ..., alpha_n)): number of patterns}
    level = {(lam, ()): 1}
    for _ in range(n - 1):
        below = Counter()
        for (row, alpha), count in level.items():
            total = sum(row)
            for nxt in product(*(range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))):
                below[nxt, (total - sum(nxt),) + alpha] += count
        level = below
    counts = Counter()
    for (row, alpha), count in level.items():
        counts[row + alpha] += count
    support = [WeightVector(alpha, mult) for alpha, mult in counts.items()]
    support.sort(key=lambda wv: wv.alpha, reverse=True)
    return support


def decompose_coinduced(lam, n: int):
    """Decomposition of the coinduced module attached to V_lam under the
    coordinatewise sum of one-variable algebras.

    Each weight alpha of V_lam of multiplicity m contributes m copies of the
    tensor product over coordinates i of T_(alpha_i, 0); returned as
    (ModuleDescriptor, multiplicity) pairs, r = n, coordinatewise action.
    """
    out = []
    for wv in weight_support(lam, n):
        desc = ModuleDescriptor(
            n, tuple(Fraction(a) for a in wv.alpha), (Fraction(0),) * n
        )
        out.append((desc, wv.multiplicity))
    return out
