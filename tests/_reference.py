"""Whole-object references the tests check the production paths against:
whole-slice homology (the coordinate sum included, as one complex rather
than a product, over fields it numbers itself), boundary matrices, decoded
chains, the numeric slice determinant, the field pool, span membership, the
bracket of combinations, the Weyl dimension and the act_e closure route."""

from fractions import Fraction

import sympy

from vflie import homology, spanning
from vflie.exact import Echelon, rank_of_vectors
from vflie.liealg import FLAVOR_COORDINATE_SUM, VFBasis, basis_of_weight, bracket_basis
from vflie.specht import _homogeneous_split
from vflie.tensormod import ModuleDescriptor, ModuleElement, _letter_constants, act_e


class CoordinateSumComplex(homology._Complex):
    """The coordinate sum's whole complex: the fields of field_pool, numbered
    in its order, and T^n placed factor by factor: factor j sits on
    coordinate j, and x_c^(k+1) d_c acts on factor c alone, by the integers
    of _letter_constants.  The trivial module (r = 0) has no factors."""

    def __init__(self, alg, desc, w_top):
        self.alg, self.desc, self.scale = alg, desc, desc.den
        self.fields = field_pool(alg, w_top)
        self.number = {f: i for i, f in enumerate(self.fields)}
        self.weights = [f.weight for f in self.fields]
        self._brackets, self._actions = {}, {}

    def act_scaled(self, field, expo):
        if not self.desc.r:
            return {}
        k, c = field.weight, field.direction
        den, (base,) = _letter_constants(self.desc, 1, k)
        f = den * expo[c] + base[c]
        return {expo[:c] + (expo[c] + k,) + expo[c + 1 :]: f} if f else {}


def window(alg, desc, p, w):
    """A complex whose fields reach every chain of C_q(w), q <= p."""
    top = homology._field_top(alg, p, w)
    if alg.flavor == FLAVOR_COORDINATE_SUM:
        return CoordinateSumComplex(alg, desc, top)
    return homology._Complex(alg, desc, top)


def _boundary_columns(cx, p, w):
    """scale * d_p on the weight-w slice, one {row index: int} per chain."""
    row_of = {key: i for i, key in enumerate(cx.chains(p - 1, w))}
    return [cx.column(key, row_of) for key in cx.chains(p, w)]


def chain_list(alg, desc, p, w):
    """C_p(w) in chain order, each chain decoded to (wedge of fields, exponent)."""
    cx = window(alg, desc, p, w)
    return [(tuple(cx.fields[i] for i in wedge), expo) for wedge, expo in cx.chains(p, w)]


def boundary_matrix(alg, desc, p, w):
    """d_p on the weight-w slice as a sympy matrix: rows C_(p-1)(w), columns C_p(w)."""
    cx = window(alg, desc, p, w)
    cols = _boundary_columns(cx, p, w)
    entries = {(i, j): sympy.Rational(c, cx.scale) for j, col in enumerate(cols) for i, c in col.items()}
    return sympy.SparseMatrix(len(cx.chains(p - 1, w)), len(cols), entries)


def homology_dim(alg, desc, p, w):
    """dim H_p(w) = dim C_p(w) - rank d_p - rank d_(p+1), by exact ranks of
    the whole slice."""
    cx = window(alg, desc, p + 1, w)
    dim = len(cx.chains(p, w))
    if dim == 0:
        return 0
    r_p = rank_of_vectors(_boundary_columns(cx, p, w)) if p > 0 else 0
    return dim - r_p - rank_of_vectors(_boundary_columns(cx, p + 1, w))


def field_pool(alg, w_max):
    """All basis fields of weight <= w_max, weight-major and then in
    (exponent, direction) order; on the coordinate sum these are the fields
    x_i^(k+1) d_i, k >= 1, whose exponent order puts i = n - 1 first."""
    if alg.flavor == FLAVOR_COORDINATE_SUM:
        n = alg.n
        return [
            VFBasis(tuple(k + 1 if j == i else 0 for j in range(n)), i)
            for k in range(1, w_max + 1)
            for i in range(n - 1, -1, -1)
        ]
    return [f for w in range(alg.min_weight, w_max + 1) for f in basis_of_weight(alg, w)]


def bracket(u, v):
    """[u, v] of {VFBasis: int} combinations, bilinear over the structure
    constants bracket_basis that homology uses."""
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            for f, c in bracket_basis(a, b):
                out[f] = out.get(f, 0) + ca * cb * c
    return {f: c for f, c in out.items() if c}


def weyl_dim(lam):
    """Weyl dimension formula for gl_n: prod_(i<j) (lam_i - lam_j + j - i)/(j - i)."""
    num = den = 1
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            num, den = num * (lam[i] - lam[j] + j - i), den * (j - i)
    return num // den


def module_route_basis(gens, n, cutoff):
    """{weight: [ModuleElement]}: a graded basis, up to the cutoff, of the
    span of the generators' homogeneous components under the diagonal act_e
    on T^n with lambda = mu = 0, grown one Fraction act_e at a time."""
    desc = ModuleDescriptor(n, (Fraction(0),) * n, (Fraction(0),) * n)
    seeds = {}
    for g in gens:
        for d, comp in _homogeneous_split(g).items():
            if d <= cutoff:
                seeds.setdefault(d, []).append(ModuleElement(desc, comp))
    basis, ech, idx = {}, {}, {}

    def admit(w, m):
        if not m.terms:
            return False
        e = ech.setdefault(w, Echelon())
        ix = idx.setdefault(w, {})
        vec = {ix.setdefault(t, len(ix)): c for t, c in m.terms.items()}
        if e.insert(vec) is not None:
            return False
        basis.setdefault(w, []).append(m)
        return True

    for w in range(cutoff + 1):
        for m in seeds.get(w, ()):
            admit(w, m)
        for k in range(1, w + 1):
            for m in basis.get(w - k, []):
                admit(w, act_e(k, m))
    return basis


def shift_determinant_value(desc):
    """The degree-r slice determinant of the module at its numeric
    parameters: the integer Newton determinant over den**degree and the
    power-basis determinant."""
    r = desc.r
    if r == 0:
        return Fraction(1)
    row_of, cols = spanning._slice_index(r)
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
