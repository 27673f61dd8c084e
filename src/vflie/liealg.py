"""Graded Lie algebras of polynomial vector fields.

Basis vector fields are x^a d_i on affine n-space; the weight of x^a d_i is
|a| - 1.  Supported algebras: the full algebra W(n) of polynomial vector
fields, its subalgebras L_d(n) spanned by fields with |a| >= d + 1 (weight
>= d), and for n coordinates the direct sum of the one-variable L_1's acting
coordinatewise.  In one variable e_k denotes z^{k+1} d/dz, with
[e_k, e_m] = (m - k) e_{k+m} and weight k.

basis_of_weight enumerates the fields of W(n) and L_d(n).  The coordinate
sum names no basis here: its homology is the Kuenneth product of one-variable
tables (see homology), which never numbers a field of the sum.
"""

from __future__ import annotations

from collections import namedtuple

from ._enum import monomials_of_degree

__all__ = [
    "VFBasis",
    "AlgebraDescriptor",
    "bracket_basis",
    "basis_of_weight",
]


class VFBasis(namedtuple("VFBasis", "exponent direction")):
    """Monomial vector field x^exponent d_(direction); direction is 0-based."""

    __slots__ = ()

    def __new__(cls, exponent, direction):
        if any(a < 0 for a in exponent):
            raise ValueError("negative exponent in %r" % (exponent,))
        if not 0 <= direction < len(exponent):
            raise ValueError("direction out of range")
        return super().__new__(cls, exponent, direction)

    @property
    def n(self) -> int:
        return len(self.exponent)

    @property
    def weight(self) -> int:
        return sum(self.exponent) - 1


def bracket_basis(u: VFBasis, v: VFBasis):
    """Structure constants: [x^a d_i, x^b d_j] as ((basis, coeff), ...).

    [x^a d_i, x^b d_j] = b_i x^(a+b-eps_i) d_j - a_j x^(a+b-eps_j) d_i,
    with a term dropped whenever its exponent would go negative.
    """
    if u.n != v.n:
        raise ValueError("variable count mismatch in bracket")
    a, i = u.exponent, u.direction
    b, j = v.exponent, v.direction
    out = {}
    if b[i] > 0:
        expo = list(x + y for x, y in zip(a, b))
        expo[i] -= 1
        key = VFBasis(tuple(expo), j)
        out[key] = out.get(key, 0) + b[i]
    if a[j] > 0:
        expo = list(x + y for x, y in zip(a, b))
        expo[j] -= 1
        key = VFBasis(tuple(expo), i)
        out[key] = out.get(key, 0) - a[j]
    return tuple((k, c) for k, c in out.items() if c)


FLAVOR_FULL = "W"
FLAVOR_VANISHING = "L"
FLAVOR_COORDINATE_SUM = "Lsum"


class AlgebraDescriptor(namedtuple("AlgebraDescriptor", "n d flavor")):
    """Which graded algebra: W(n), L_d(n), or the coordinatewise sum of L_1's.

    flavor "W": all monomial fields (weights >= -1); d is ignored and 0.
    flavor "L": fields of weight >= d (d >= 1).
    flavor "Lsum": fields x_i^(k+1) d_i with k >= 1, one L_1 per coordinate.
    """

    __slots__ = ()

    def __new__(cls, n, d=0, flavor=FLAVOR_VANISHING):
        if n < 1:
            raise ValueError("need at least one variable")
        if flavor == FLAVOR_FULL:
            if d != 0:
                raise ValueError("W flavor carries no vanishing order")
        elif flavor == FLAVOR_VANISHING:
            if d < 1:
                raise ValueError("L flavor requires d >= 1")
        elif flavor == FLAVOR_COORDINATE_SUM:
            if d != 1:
                raise ValueError("coordinate-sum flavor is built from L_1's")
        else:
            raise ValueError("unknown flavor %r" % (flavor,))
        return super().__new__(cls, n, d, flavor)

    @property
    def min_weight(self) -> int:
        if self.flavor == FLAVOR_FULL:
            return -1
        if self.flavor == FLAVOR_VANISHING:
            return self.d
        return 1

    def label(self) -> str:
        if self.flavor == FLAVOR_FULL:
            return "W:%d" % self.n
        if self.flavor == FLAVOR_VANISHING:
            return "L%d:%d" % (self.d, self.n)
        return "Lsum:%d" % self.n


def basis_of_weight(alg: AlgebraDescriptor, w: int):
    """Ordered basis of the weight-w component of W(n) or L_d(n): the
    n * binom(w + n, n - 1) fields x^a d_i with |a| = w + 1 when w is at
    least the lowest weight, in (exponent, direction) order, the order that
    homology's chain keys number them in."""
    if alg.flavor == FLAVOR_COORDINATE_SUM:
        raise ValueError("the coordinate sum has no enumerated basis; its homology is a product")
    if w < alg.min_weight:
        return []
    return [
        VFBasis(expo, i) for expo in monomials_of_degree(alg.n, w + 1) for i in range(alg.n)
    ]

