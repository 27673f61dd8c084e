"""Substitution-closed (T-) spaces of polynomials without constant term.

A T-space here is a subspace V of k[x_1..x_n] closed under every diagonal
substitution x_i -> p(x_i) with one univariate p, p(0) = 0, applied to all
variables at once.  Two facts drive the computation:

* V is closed under taking homogeneous components: the dilation x -> c x
  is a substitution, and the component of degree m is a rational
  combination of the dilations f(c x) at finitely many distinct scalars c,
  because their Vandermonde matrix is invertible.
* In characteristic zero a graded subspace is substitution-closed exactly
  when it is stable under the infinitesimal operators
      D_k f = sum_i x_i^(k+1) df/dx_i,  k >= 1,
  the derivatives of the one-parameter substitution families.  Since D_k
  raises degree by k, the closure saturates weight by weight in one
  ascending pass.

D_k x^a = sum_i a_i x^(a + k e_i) is e_k acting on the tensor module T^n
with lambda = mu = 0, so closure_basis runs the ladder on integer vectors
keyed by exponent tuple with tensormod._act_int, the kernel behind the word
families and the power basis too.  A polynomial is a sparse
{exponent tuple: coefficient} dict from input to output.
"""

from __future__ import annotations

import itertools

from .exact import Echelon, _poly_add, _poly_mul, _to_int_vector
from .pbw_hilbert import RationalSeries, one_minus_t_powers
from .tensormod import _act_int

__all__ = [
    "closure_basis",
    "TSpace",
    "tspace_series",
]


def _homogeneous_split(f) -> dict:
    """The terms of f grouped by total degree, {degree: component}, in
    ascending degree."""
    parts = {}
    for expo, coeff in f.items():
        parts.setdefault(sum(expo), {})[expo] = coeff
    return dict(sorted(parts.items()))


class TSpace:
    """Graded basis of a substitution-closed space, valid up to a cutoff:
    {weight: [integer {exponent tuple: int} vectors]}."""

    def __init__(self, n: int, graded_basis: dict, cutoff: int):
        self.n = n
        self.graded_basis = graded_basis
        self.cutoff = cutoff

    def dimension(self, w: int) -> int:
        if w < 0 or w > self.cutoff:
            raise ValueError("weight %d outside certified range 0..%d" % (w, self.cutoff))
        return len(self.graded_basis.get(w, ()))

    def dimensions(self):
        return [self.dimension(w) for w in range(self.cutoff + 1)]


def closure_basis(generators, n: int, cutoff: int) -> TSpace:
    """Substitution closure of the given polynomials in n variables, each a
    {exponent tuple: coefficient} dict, graded up to cutoff.

    Components of the generators seed the grading; the single ascending
    sweep applies every ladder operator D_k to every lower-weight basis
    element, which suffices because each D_k strictly raises degree.  The
    sweep runs on integer multiples of the components, which spans the same
    space.  Components beyond the cutoff are dropped (the returned space is
    only certified up to the cutoff).
    """
    generators = list(generators)
    if any(len(expo) != n for g in generators for expo in g):
        raise ValueError("generators must have exponent vectors of length %d" % n)
    zero = (0,) * n
    seeds = {}
    for g in generators:
        for d, comp in _homogeneous_split(g).items():
            if d <= cutoff:
                seeds.setdefault(d, []).append(_to_int_vector(comp)[0])
    basis = {}
    for w in range(cutoff + 1):
        ech = Echelon()
        # D_k is e_k on T^n with lambda = mu = 0: den 1, every base 0
        images = (_act_int(v, k, 1, zero) for k in range(1, w + 1) for v in basis.get(w - k, ()))
        candidates = itertools.chain(seeds.get(w, ()), images)
        admitted = [v for v in candidates if v and ech.insert(v) is None]
        if admitted:
            basis[w] = admitted
    return TSpace(n, basis, cutoff)


def tspace_series(ts: TSpace) -> dict:
    """Fit the dimension sequence to Num(t) / prod_(i<=r) (1 - t^i).

    Tries r = 0, 1, ..., n + 2 in turn; a fit is accepted when multiplying
    the dimension series by the denominator leaves a numerator supported
    well below the cutoff (margin max(3, cutoff // 3)), then re-expanding
    reproduces every computed dimension.  Otherwise the result is marked
    inconclusive and only the raw dimensions are returned.
    """
    dims = ts.dimensions()
    cutoff = ts.cutoff
    margin = max(3, cutoff // 3)
    for r in range(0, ts.n + 3):
        den = one_minus_t_powers(range(1, r + 1))
        if len(den) - 1 > cutoff - margin:
            break
        num = _poly_mul(den, dims)
        tail_start = cutoff - margin + 1
        if any(num[tail_start : cutoff + 1]):
            continue
        num = _poly_add(num[:tail_start]) or [0]
        if RationalSeries(num, den).expand(cutoff) == dims:
            return {"dims": dims, "num": num, "den": den, "inconclusive": False}
    return {"dims": dims, "inconclusive": True}

