"""Graded Lie algebras of polynomial vector fields.

Basis vector fields are x^a d_i on affine n-space; the weight of x^a d_i is
|a| - 1.  Supported algebras: the full algebra W(n) of polynomial vector
fields, its subalgebras L_d(n) spanned by fields with |a| >= d + 1 (weight
>= d), and for n coordinates the direct sum of the one-variable L_1's acting
coordinatewise.  In one variable e_k denotes z^{k+1} d/dz, with
[e_k, e_m] = (m - k) e_{k+m} and weight k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._enum import monomials_of_degree

__all__ = [
    "VFBasis",
    "LieElement",
    "AlgebraDescriptor",
    "e_basis",
    "coordinate_e",
    "bracket",
    "bracket_basis",
    "dilation_embedding",
    "basis_of_weight",
]


@dataclass(frozen=True)
class VFBasis:
    """Monomial vector field x^exponent d_(direction); direction is 0-based."""

    exponent: tuple
    direction: int

    def __post_init__(self):
        if any(a < 0 for a in self.exponent):
            raise ValueError("negative exponent in %r" % (self.exponent,))
        if not 0 <= self.direction < len(self.exponent):
            raise ValueError("direction out of range")

    @property
    def n(self) -> int:
        return len(self.exponent)

    @property
    def weight(self) -> int:
        return sum(self.exponent) - 1

    def sort_key(self):
        return (sum(self.exponent), self.exponent, self.direction)

    def __str__(self):
        if self.n == 1:
            return "e%d" % self.weight
        factors = []
        for i, a in enumerate(self.exponent):
            if a == 1:
                factors.append("x%d" % (i + 1))
            elif a > 1:
                factors.append("x%d^%d" % (i + 1, a))
        mono = "*".join(factors) if factors else "1"
        return "%s*d%d" % (mono, self.direction + 1)


def e_basis(k: int) -> VFBasis:
    """One-variable basis field e_k = z^(k+1) d/dz (weight k, requires k >= -1)."""
    if k < -1:
        raise ValueError("e_k requires k >= -1")
    return VFBasis((k + 1,), 0)


def coordinate_e(k: int, i: int, n: int) -> VFBasis:
    """The field x_i^(k+1) d_i inside n variables (i is 0-based)."""
    if k < -1:
        raise ValueError("coordinate e_k requires k >= -1")
    expo = tuple(k + 1 if j == i else 0 for j in range(n))
    return VFBasis(expo, i)


class LieElement:
    """Finite Q-linear combination of monomial vector fields in n variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for basis, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                if basis.n != n:
                    raise ValueError("mixed variable counts in LieElement")
                self.terms[basis] = self.terms.get(basis, Fraction(0)) + c
                if self.terms[basis] == 0:
                    del self.terms[basis]

    @classmethod
    def from_basis(cls, basis: VFBasis, coeff=1):
        return cls(basis.n, {basis: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LieElement") -> "LieElement":
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for b, c in other.terms.items():
            s = terms.get(b, Fraction(0)) + c
            if s:
                terms[b] = s
            elif b in terms:
                del terms[b]
        out = LieElement(self.n)
        out.terms = terms
        return out

    def __neg__(self):
        out = LieElement(self.n)
        out.terms = {b: -c for b, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        c = Fraction(scalar)
        out = LieElement(self.n)
        if c:
            out.terms = {b: k * c for b, k in self.terms.items()}
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, LieElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for b in sorted(self.terms, key=VFBasis.sort_key):
            c = self.terms[b]
            parts.append("%s%s*%s" % ("" if c >= 0 else "-", abs(c), b))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


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


def bracket(u: LieElement, v: LieElement) -> LieElement:
    """Lie bracket of two elements, bilinear over the basis bracket."""
    if u.n != v.n:
        raise ValueError("variable count mismatch in bracket")
    out = LieElement(u.n)
    terms = out.terms
    for bu, cu in u.terms.items():
        for bv, cv in v.terms.items():
            c = cu * cv
            for basis, k in bracket_basis(bu, bv):
                s = terms.get(basis, Fraction(0)) + c * k
                if s:
                    terms[basis] = s
                elif basis in terms:
                    del terms[basis]
    return out


def dilation_embedding(k: int, d: int) -> LieElement:
    """Image of e_k under the degree-d dilation embedding e_k -> e_(dk)/d.

    The images f_k = e_(dk)/d satisfy [f_k, f_m] = (m-k) f_(k+m) exactly,
    giving a copy of L_1(1) inside L_d(1).
    """
    if d < 1:
        raise ValueError("dilation degree must be >= 1")
    if k < 1:
        raise ValueError("dilation embedding is defined on e_k with k >= 1")
    return LieElement.from_basis(e_basis(d * k), Fraction(1, d))


FLAVOR_FULL = "W"
FLAVOR_VANISHING = "L"
FLAVOR_COORDINATE_SUM = "Lsum"


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Which graded algebra: W(n), L_d(n), or the coordinatewise sum of L_1's.

    flavor "W": all monomial fields (weights >= -1); d is ignored and 0.
    flavor "L": fields of weight >= d (d >= 1).
    flavor "Lsum": fields x_i^(k+1) d_i with k >= 1, one L_1 per coordinate.
    """

    n: int
    d: int = 0
    flavor: str = FLAVOR_VANISHING

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.flavor == FLAVOR_FULL:
            if self.d != 0:
                raise ValueError("W flavor carries no vanishing order")
        elif self.flavor == FLAVOR_VANISHING:
            if self.d < 1:
                raise ValueError("L flavor requires d >= 1")
        elif self.flavor == FLAVOR_COORDINATE_SUM:
            if self.d != 1:
                raise ValueError("coordinate-sum flavor is built from L_1's")
        else:
            raise ValueError("unknown flavor %r" % (self.flavor,))

    @property
    def min_weight(self) -> int:
        if self.flavor == FLAVOR_FULL:
            return -1
        if self.flavor == FLAVOR_VANISHING:
            return self.d
        return 1

    def contains(self, basis: VFBasis) -> bool:
        if basis.n != self.n:
            return False
        if self.flavor == FLAVOR_FULL:
            return True
        if self.flavor == FLAVOR_VANISHING:
            return basis.weight >= self.d
        k = basis.weight
        if k < 1:
            return False
        want = tuple(
            k + 1 if j == basis.direction else 0 for j in range(self.n)
        )
        return basis.exponent == want

    def label(self) -> str:
        if self.flavor == FLAVOR_FULL:
            return "W:%d" % self.n
        if self.flavor == FLAVOR_VANISHING:
            return "L%d:%d" % (self.d, self.n)
        return "Lsum:%d" % self.n


def basis_of_weight(alg: AlgebraDescriptor, w: int):
    """Ordered basis of the weight-w component of the algebra.

    Sorted by (degree, exponent, direction); for L_d(n) the count is
    n * binom(w + n, n - 1) monomials of degree w+1 when w >= d.
    """
    if w < alg.min_weight:
        return []
    out = []
    if alg.flavor == FLAVOR_COORDINATE_SUM:
        for i in range(alg.n):
            out.append(coordinate_e(w, i, alg.n))
    else:
        for expo in monomials_of_degree(alg.n, w + 1):
            out.extend(VFBasis(tuple(expo), i) for i in range(alg.n))
    out.sort(key=VFBasis.sort_key)
    return out


def basis_up_to_weight(alg: AlgebraDescriptor, w_max: int):
    """All basis fields of weight <= w_max, in weight-major order."""
    out = []
    for w in range(alg.min_weight, w_max + 1):
        out.extend(basis_of_weight(alg, w))
    return out


def jacobi_defect(u: LieElement, v: LieElement, w: LieElement) -> LieElement:
    """[[u,v],w] + [[v,w],u] + [[w,u],v]; zero iff the Jacobi identity holds."""
    return (
        bracket(bracket(u, v), w)
        + bracket(bracket(v, w), u)
        + bracket(bracket(w, u), v)
    )
