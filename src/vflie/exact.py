"""Exact rational arithmetic, interpolation, univariate coefficient lists and
sparse linear algebra.

Everything here computes over Q with arbitrary-precision integers, with no
floating point.  Rational scalars are stdlib ``fractions.Fraction``;
elimination clears denominators and runs fraction-free over the integers:
one reduction loop, ``Echelon._reduce``, on one step, ``_eliminate``, with
content stripped once per reduced vector to control coefficient growth.
Univariate polynomials and truncated power series are ascending integer
coefficient lists, and every product, sum and series quotient of them goes
through ``_poly_mul``, ``_poly_add`` and ``_series_quotient``.

One modular kernel, ``rank_mod_p``, ranks integer vectors over GF(p).  For an
integer matrix the rank mod p is at most the rank over Q, so one rule makes
it a proof: a mod-p rank that reaches a caller's upper bound for the rank
over Q is exact.  ``rank_of_vectors(vectors, bound)`` applies that rule for
every caller, with bounds such as the dimension of the space or, in a chain
complex, dim C_(p-1) - rank d_(p-1) (d o d = 0), and falls back to exact
elimination (``Echelon``) when the mod-p rank stays below it.  So every
rank, kernel and determinant reported is exact.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from fractions import Fraction

__all__ = [
    "parse_rat",
    "format_rat",
    "SparseMat",
    "Echelon",
    "rank_of_vectors",
    "rank_mod_p",
    "PRIME",
    "interpolate",
]


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into a Fraction.  Whitespace is tolerated."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        p, q = s.split("/", 1)
        num, den = int(p.strip()), int(q.strip())
        if den == 0:
            raise ValueError("zero denominator in %r" % text)
        return Fraction(num, den)
    return Fraction(int(s))


def format_rat(q) -> str:
    """Render a Fraction as 'p' or 'p/q' (denominator omitted when 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def interpolate(values, x0=0):
    """Coefficients, ascending, of the polynomial through (x0 + i, values[i]),
    trailing zeros dropped: times the values' common denominator the forward
    differences d_k are integers, and f(x) = sum_k d_k/k! (x - x0)^(k falling)."""
    values = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    diffs = [v.numerator * (scale // v.denominator) for v in values]
    top = weight = math.factorial(max(len(values) - 1, 0))  # weight = (n - 1)!/k!
    terms, basis = [], [1]  # basis: the falling-factorial product
    for k in range(len(values)):
        terms.append([diffs[0] * weight * b for b in basis])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        weight //= k + 1
        basis = _poly_mul(basis, [-x0 - k, 1])
    return [Fraction(c, scale * top) for c in _poly_add(*terms)]


# ---------------------------------------------------------------------------
# integer coefficient lists, ascending: polynomials and truncated power series


def _poly_mul(a, b):
    """The product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(*polys):
    """The sum of coefficient lists, trailing zeros dropped (zero is [])."""
    out = [0] * max(map(len, polys), default=0)
    for p in polys:
        for i, c in enumerate(p):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _series_quotient(a, b, n):
    """The first n power-series coefficients of a/b.  Needs b[0] == 1, so
    they are read off from the bottom up, as integers."""
    q = []
    for k in range(n):
        c = a[k] if k < len(a) else 0
        for j in range(1, min(k, len(b) - 1) + 1):
            c -= b[j] * q[k - j]
        q.append(c)
    return q


# ---------------------------------------------------------------------------
# incremental fraction-free echelon


def _to_int_vector(vec):
    """Scale a {key: Fraction} vector to integers; returns (int vector, scale).
    An all-int vector is copied as it is, with scale 1."""
    if all(type(c) is int for c in vec.values()):
        return {k: c for k, c in vec.items() if c}, 1
    denom = 1
    for c in vec.values():
        c = Fraction(c)
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    out = {}
    for k, c in vec.items():
        c = Fraction(c)
        v = c.numerator * (denom // c.denominator)
        if v:
            out[k] = v
    return out, denom


class Echelon:
    """Incremental row echelon over Q, kept fraction-free over Z.

    Vectors are sparse ``{key: value}`` dicts with mutually comparable keys.
    ``insert`` reduces the vector against the stored pivot rows (pivot = the
    maximal key) by integer cross-multiplication, then either records a new
    pivot row, stripped of its content with a positive leading entry
    (independent), or reports the dependency.
    With ``track=True`` each insert also carries its expression in terms of
    the inserted vectors, so dependencies come out as exact integer kernel
    combinations.
    """

    def __init__(self, track: bool = False):
        self.pivots = {}
        self.track = track
        self._combos = {}
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec):
        """Insert a vector; returns None if independent, else the dependency.

        The dependency is a {insert index: int} combination c with
        sum_i c_i * v_i == 0 where v_i are the vectors as originally
        inserted and c includes the current vector's index.
        """
        index = self._count
        self._count += 1
        v, scale = _to_int_vector(vec)
        v, combo, lead, _ = self._reduce(v, {index: scale} if self.track else None)
        if not v:
            return combo if self.track else {}
        _strip_gcd_pair(v, combo)
        if v[lead] < 0:
            for k in v:
                v[k] = -v[k]
            if combo is not None:
                for k in combo:
                    combo[k] = -combo[k]
        self.pivots[lead] = v
        if self.track:
            self._combos[lead] = combo
        return None

    def reduce(self, vec):
        """Reduce a vector against the pivots without inserting; returns the
        integer residue (empty dict means the vector lies in the row space)."""
        return self._reduce(_to_int_vector(vec)[0], None)[0]

    def _reduce(self, v, combo):
        """The one reduction loop: (v, combo, lead, factor) once v is empty
        or its leading key lead has no pivot row.  factor is the product of
        the multipliers ca of the steps, and combo follows v if tracked.  No
        content is stripped here; callers strip it once per reduced vector."""
        factor = 1
        while v:
            lead = max(v)
            row = self.pivots.get(lead)
            if row is None:
                return v, combo, lead, factor
            v, ca, cb = _eliminate(v, row, lead)
            factor *= ca
            if combo is not None:
                combo = _cross(combo, self._combos[lead], ca, cb)
        return v, combo, None, factor


def _eliminate(v, row, lead):
    """The fraction-free step: (ca*v - cb*row, ca, cb), with ca and cb the
    entries of row and v at lead over their gcd, so lead cancels."""
    a, b = v[lead], row[lead]
    g = math.gcd(a, b)
    ca, cb = b // g, a // g
    return _cross(v, row, ca, cb), ca, cb


def _cross(v, row, ca, cb):
    """ca*v - cb*row over sparse integer dicts."""
    out = {k: x * ca for k, x in v.items()}
    for k, y in row.items():
        t = out.get(k, 0) - y * cb
        if t:
            out[k] = t
        elif k in out:
            del out[k]
    return out


def _strip_gcd_pair(v, combo):
    """Divide v (and its tracked combination) by their joint content g; return g."""
    if not v:
        return 1
    g = 0
    for x in v.values():
        g = math.gcd(g, x)
        if g == 1:
            return 1
    if combo is not None:
        for x in combo.values():
            g = math.gcd(g, x)
            if g == 1:
                return 1
    if g > 1:
        for k in v:
            v[k] //= g
        if combo is not None:
            for k in combo:
                combo[k] //= g
    return g


def rank_of_vectors(vectors, bound=None) -> int:
    """Rank over Q of a family of sparse {key: Fraction or int} vectors.

    With a bound, an upper bound for the rank over Q, the rank is first
    taken mod p up to min(bound, number of vectors); if it reaches that
    limit it is the rank over Q.  Otherwise the family goes to exact
    elimination in ``_fill_in_order``.  Without a bound the vectors are
    eliminated exactly, in the given order, with no mod-p step.

    The rank is invariant under permuting the vectors (the columns) and
    relabelling the keys (the rows); the work is not, since the insertion
    order and the pivot order, largest key first, set the fill-in."""
    if bound is not None:
        limit = min(bound, len(vectors))
        if rank_mod_p(vectors, limit=limit) == limit:
            return limit
        vectors = _fill_in_order(vectors)
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


def _fill_in_order(family):
    """The family with its row keys renumbered by (-occurrences, key), so the
    sparsest rows get the largest keys and are pivoted on first, and its
    vectors sorted by their largest new key: a vector whose leading key no
    earlier vector has becomes a pivot row with no reduction.

    On the homology blocks whose mod-p rank stays below its bound, L1:2
    p <= 4, w <= 8, this order cut the entries the exact row operations
    touch from 10879916 to 3873543.  Mod p the same renumbering slowed the
    n = 1 windows, so ``rank_mod_p`` keeps the caller's order."""
    count = Counter(k for vec in family for k in vec)
    number = {k: i for i, k in enumerate(sorted(count, key=lambda k: (-count[k], k)))}
    family = [{number[k]: c for k, c in vec.items()} for vec in family]
    return sorted(family, key=lambda vec: max(vec, default=-1))


# the largest prime below 2**30: residues and their products stay small ints
PRIME = 1073741789


def rank_mod_p(vectors, p=PRIME, limit=None) -> int:
    """Rank over GF(p) of sparse {key: Fraction or int} vectors.

    Each vector is scaled to an integer vector (``_to_int_vector``; a nonzero
    scalar changes no rank).  Keys are numbered in sorted order and each
    vector is reduced from its largest key down, against pivot rows
    normalized to a leading 1; entries are reduced mod p only when they
    lead.  The result is a lower bound for the rank over Q; with a limit,
    elimination stops once the rank reaches it (``rank_of_vectors`` says
    when that proves the rank over Q).  Like every rank, it is invariant
    under permuting the vectors and relabelling the keys; only the fill-in
    depends on their order.
    """
    vectors = [_to_int_vector(vec)[0] for vec in vectors]
    number = {k: i for i, k in enumerate(sorted({k for vec in vectors for k in vec}))}
    pivots = {}  # leading key -> the rest of its row, residues mod p
    for vec in vectors:
        if len(pivots) == limit:
            break
        v = {number[k]: c for k, c in vec.items()}
        heap = [-k for k in v]  # the keys of v, largest first
        heapq.heapify(heap)
        while heap:
            lead = -heapq.heappop(heap)
            c = v.pop(lead) % p
            if not c:
                continue
            row = pivots.get(lead)
            if row is None:
                inv = pow(c, -1, p)
                pivots[lead] = {k: x * inv % p for k, x in v.items() if x % p}
                break
            for k, y in row.items():
                if k in v:
                    v[k] -= c * y
                else:
                    v[k] = -c * y
                    heapq.heappush(heap, -k)
    return len(pivots)


# ---------------------------------------------------------------------------
# sparse matrices


class SparseMat:
    """Sparse matrix of rationals (Fraction or int) indexed by (row, col).

    Zero entries are not stored.  ``rank``, ``kernel_basis`` and ``det`` all
    reduce the columns in ``Echelon``'s one reduction loop, with content
    stripped once per reduced vector.
    """

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    def __setitem__(self, key, value):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        value = Fraction(value)
        if value == 0:
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = value

    def col_vectors(self):
        out = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            out[j][i] = v
        return out

    def rank(self) -> int:
        return rank_of_vectors(self.col_vectors())

    def kernel_basis(self):
        """Basis of the right null space as tuples of ints.

        Columns are inserted left to right into a tracked echelon; every
        dependent column yields one kernel vector, normalized to a primitive
        integer vector whose first nonzero entry is positive.
        """
        ech = Echelon(track=True)
        basis = []
        for j, col in enumerate(self.col_vectors()):
            combo = ech.insert(col)
            if combo is None:
                continue
            vec = [0] * self.cols
            for idx, c in combo.items():
                vec[idx] = c
            basis.append(_normalize_kernel_vector(vec))
        return basis

    def det(self):
        """Exact determinant on the echelon's loop: each integer-scaled
        column is reduced by ``Echelon._reduce``, which multiplies it by
        factor, and stored stripped of its content g.  Each stored column is
        prod(g)/prod(factor) times its own plus earlier ones, and sorted by
        their distinct leading rows they are triangular, so det = sign *
        prod(leads) * prod(g) / prod(factor) exactly, with sign that sort's
        sign.  A column that reduces to zero gives 0.  The columns go through
        ``_reduce``, not ``insert``, which keeps ``insert`` to ranks and
        kernels.

        Content is stripped once per column, as ``Echelon.insert`` strips it
        once per vector.  Stripping after every step instead took ``phi --r 5
        --lam=1/2,-1,2/3,0,1 --mu=1,-1/3,0,2,1/2`` from 4.2-4.4 s to 5.3-5.7
        s, and ``homology --algebra L1:2 --p-max 4 --w-max 9`` from 21.7-24.7
        s of CPU to 25.0-31.3 s (three runs each on a shared 2-core host)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        ech = Echelon()
        lead_of = []  # the leading row of each stored column, by column
        num = den = scale = 1
        for col in self.col_vectors():
            v, s = _to_int_vector(col)
            scale *= s
            v, _, lead, factor = ech._reduce(v, None)
            if not v:
                return Fraction(0)
            den *= factor
            num *= _strip_gcd_pair(v, None) * v[lead]
            ech.pivots[lead] = v
            lead_of.append(lead)
        return Fraction(_permutation_sign(lead_of) * num // den, scale)


def _permutation_sign(perm):
    """Sign (-1)**(n - cycles) of the permutation i -> perm[i] of 0..n-1."""
    parity, seen = len(perm), set()
    for i in range(len(perm)):
        parity -= i not in seen
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return -1 if parity % 2 else 1


def _normalize_kernel_vector(vec):
    """An integer vector divided by its content and signed so that its first
    nonzero entry is positive, as a tuple."""
    g = math.gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)
