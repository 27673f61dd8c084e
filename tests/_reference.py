"""Whole-object references the tests check the production paths against:
whole-slice homology (the coordinate sum included, as one complex rather
than a product), boundary matrices, decoded chains, the numeric slice
determinant, the field pool and span membership."""

from fractions import Fraction

import sympy

from vflie import homology, spanning
from vflie.exact import Echelon, rank_of_vectors
from vflie.homology import TensorCoefficients
from vflie.liealg import FLAVOR_COORDINATE_SUM, basis_of_weight
from vflie.specht import _homogeneous_split
from vflie.tensormod import ModuleDescriptor, _letter_constants


class CoordinateSumCoefficients(TensorCoefficients):
    """T^n over the coordinate sum, placed factor by factor: factor j sits on
    coordinate j, and x_c^(k+1) d_c acts on factor c alone, by the integers
    of _letter_constants.  The trivial module (r = 0) has no factors."""

    def act_scaled(self, field, expo):
        if not self.descriptor.r:
            return {}
        k, c = field.weight, field.direction
        den, (base,) = _letter_constants(self.descriptor, 1, k)
        f = den * expo[c] + base[c]
        return {expo[:c] + (expo[c] + k,) + expo[c + 1 :]: f} if f else {}


def _window(alg, coeffs, p, w):
    """A complex whose fields reach every chain of C_q(w), q <= p; on the
    coordinate sum its coefficients act factor by factor."""
    if alg.flavor == FLAVOR_COORDINATE_SUM:
        coeffs = CoordinateSumCoefficients(coeffs.descriptor)
    return homology._Complex(alg, coeffs, homology._field_top(alg, p, w))


def _boundary_columns(cx, p, w):
    """scale * d_p on the weight-w slice, one {row index: int} per chain."""
    row_of = {key: i for i, key in enumerate(cx.chains(p - 1, w))}
    return [cx.column(key, row_of) for key in cx.chains(p, w)]


def chain_list(alg, coeffs, p, w):
    """C_p(w) in chain order, each chain decoded to (wedge of fields, exponent)."""
    cx = _window(alg, coeffs, p, w)
    return [(tuple(cx.fields[i] for i in wedge), expo) for wedge, expo in cx.chains(p, w)]


def boundary_matrix(alg, coeffs, p, w):
    """d_p on the weight-w slice as a sympy matrix: rows C_(p-1)(w), columns C_p(w)."""
    cx = _window(alg, coeffs, p, w)
    cols = _boundary_columns(cx, p, w)
    entries = {(i, j): sympy.Rational(c, cx.scale) for j, col in enumerate(cols) for i, c in col.items()}
    return sympy.SparseMatrix(len(cx.chains(p - 1, w)), len(cols), entries)


def homology_dim(alg, coeffs, p, w):
    """dim H_p(w) = dim C_p(w) - rank d_p - rank d_(p+1), by exact ranks of
    the whole slice."""
    cx = _window(alg, coeffs, p + 1, w)
    dim = len(cx.chains(p, w))
    if dim == 0:
        return 0
    r_p = rank_of_vectors(_boundary_columns(cx, p, w)) if p > 0 else 0
    return dim - r_p - rank_of_vectors(_boundary_columns(cx, p + 1, w))


def field_pool(alg, w_max):
    """All basis fields of weight <= w_max, in weight-major order."""
    return [f for w in range(alg.min_weight, w_max + 1) for f in basis_of_weight(alg, w)]


def shift_determinant_value(r, lam, mu):
    """The degree-r slice determinant at numeric parameters: the integer
    Newton determinant over den**degree and the power-basis determinant."""
    if r == 0:
        return Fraction(1)
    row_of, cols = spanning._slice_index(r)
    desc = ModuleDescriptor(r, tuple(lam), tuple(mu))
    degree = sum(sum(rho) for rho, _ in cols)
    newton = spanning._newton_data(desc, row_of, cols).det()
    return newton / (desc.den**degree * spanning.power_basis_matrix(r).det())


def in_span(graded_basis, f):
    """Whether each homogeneous component of f lies in the span of the
    vectors graded_basis holds at its degree."""
    for d, comp in _homogeneous_split(f).items():
        ech = Echelon()
        for g in graded_basis.get(d, ()):
            ech.insert(g)
        if ech.reduce(comp):
            return False
    return True
