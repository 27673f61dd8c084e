"""Independent checks of vflie CLI outputs.

Each oracle takes the job (see jobs.py) and the job's stdout bytes and
returns a list of problems; an empty list means the output passed.  The
checks recompute what they can from first principles (binomial slice
dimensions, Goncharova's weights, the column-index degree of phi, a power
series expansion) and, for specht, from a second algorithm built on
``tensormod.act_e``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb


def _slice_dim(r, w):
    return comb(w + r - 1, r - 1)


def _expand(num, den, upto):
    """Power-series coefficients of num(t)/den(t) up to t^upto."""
    out = []
    for k in range(upto + 1):
        acc = Fraction(num[k]) if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def _check_weights(payload, r, cutoff, exact_candidates):
    problems = []
    weights = payload.get("weights", [])
    if [s.get("weight") for s in weights] != list(range(cutoff + 1)):
        problems.append("weights do not cover 0..%d" % cutoff)
    for s in weights:
        dim = _slice_dim(r, s["weight"])
        if s["dimension"] != dim or s["rank"] != dim or not s["ok"]:
            problems.append("slice w=%d: rank %s, dimension %s, expected %d"
                            % (s["weight"], s["rank"], s["dimension"], dim))
        if exact_candidates and s["candidates"] != dim:
            problems.append("slice w=%d: %d candidates for dimension %d"
                            % (s["weight"], s["candidates"], dim))
    if payload.get("verdict") is not True:
        problems.append("verdict is not true")
    return problems


def slices(job, payload):
    """shift/span: every slice has rank = dimension = C(w+r-1, r-1);
    hilbert: the dims and the expanded series both equal C(w+r-1, r-1)."""
    r = job["info"]["r"]
    cutoff = payload["cutoff"]
    if job["cmd"] == "shift":
        return _check_weights(payload, r, cutoff, exact_candidates=True)
    if job["cmd"] == "span":
        return _check_weights(payload, r, cutoff, exact_candidates=False)
    expected = [_slice_dim(r, w) for w in range(cutoff + 1)]
    problems = []
    if payload["dims"] != expected:
        problems.append("dims %s, expected %s" % (payload["dims"], expected))
    series = payload["series"]
    if _expand(series["num"], series["den"], cutoff) != expected:
        problems.append("series %s does not expand to the slice dimensions" % series)
    if payload.get("dims_match") is not True:
        problems.append("dims_match is not true")
    return problems


def goncharova(job, payload):
    """H_*(L_1) with trivial coefficients: H_0 = k at weight 0, and for
    q >= 1 one class in each weight (3q^2 - q)/2 and (3q^2 + q)/2."""
    info = job["info"]
    expected = {(0, 0)}
    for q in range(1, info["p_max"] + 1):
        for w in ((3 * q * q - q) // 2, (3 * q * q + q) // 2):
            if w <= info["w_max"]:
                expected.add((q, w))
    got = {(e["p"], e["w"]): e["dim"] for e in payload["nonzero"]}
    problems = []
    if set(got) != expected:
        problems.append("nonzero at %s, expected %s" % (sorted(got), sorted(expected)))
    if any(d != 1 for d in got.values()):
        problems.append("a class of dimension other than 1: %s" % got)
    return problems


def window(job, payload):
    """Any homology window: the stated range, positive integer dims inside it."""
    info = job["info"]
    problems = []
    if payload["p_max"] != info["p_max"] or payload["w_max"] != info["w_max"]:
        problems.append("window differs from the request")
    bad = [
        e for e in payload["nonzero"]
        if not (0 <= e["p"] <= info["p_max"] and 0 <= e["w"] <= info["w_max"])
        or not (isinstance(e["dim"], int) and e["dim"] > 0)
    ]
    if bad:
        problems.append("%d entries outside the window or not positive, first %s" % (len(bad), bad[0]))
    return problems


def _phi_degree(r):
    """Sum of word lengths over the column index of the degree-r slice:
    pairs (rho, a) with a_i < i and sum_k k rho_k + |a| = r."""
    total = 0
    for a in product(*(range(i) for i in range(1, r + 1))):
        rest = r - sum(a)
        if rest < 0:
            continue
        for rho in product(*(range(rest // k + 1) for k in range(1, r + 1))):
            if sum(k * c for k, c in zip(range(1, r + 1), rho)) == rest:
                total += sum(rho)
    return total


def phi(job, payload):
    """The shift determinant is monic of degree equal to the column-index
    word length."""
    coeffs = [Fraction(c) for c in payload["coeffs"]]
    degree = _phi_degree(job["info"]["r"])
    problems = []
    if len(coeffs) - 1 != degree:
        problems.append("degree %d, expected %d" % (len(coeffs) - 1, degree))
    if not coeffs or coeffs[-1] != 1:
        problems.append("not monic")
    return problems


class _Rank:
    """Incremental independence test over Q (row echelon with Fractions)."""

    def __init__(self):
        self.rows = {}

    def add(self, vec):
        v = {k: Fraction(c) for k, c in vec.items() if c}
        while v:
            lead = max(v)
            row = self.rows.get(lead)
            if row is None:
                self.rows[lead] = v
                return True
            f = v[lead] / row[lead]
            for k, c in row.items():
                t = v.get(k, 0) - f * c
                if t:
                    v[k] = t
                else:
                    v.pop(k, None)
        return False


def module_route_dims(generators, n, cutoff):
    """Closure dimensions by the diagonal action of e_k on T^n_(0,0):
    D_k f = sum_i x_i^(k+1) df/dx_i is act_e(k) on the monomial basis."""
    from vflie.tensormod import ModuleDescriptor, ModuleElement, act_e

    desc = ModuleDescriptor(n, (Fraction(0),) * n, (Fraction(0),) * n)
    seeds = {}
    for gen in generators:
        parts = {}
        for key, val in gen.items():
            expo = tuple(int(x) for x in key.split(","))
            parts.setdefault(sum(expo), {})[expo] = Fraction(val)
        for d, terms in sorted(parts.items()):
            if d <= cutoff:
                seeds.setdefault(d, []).append(ModuleElement(desc, terms))
    basis, ranks = {}, {}

    def admit(w, m):
        if m.terms and ranks.setdefault(w, _Rank()).add(m.terms):
            basis.setdefault(w, []).append(m)

    for w in range(cutoff + 1):
        for m in seeds.get(w, ()):
            admit(w, m)
        for k in range(1, w + 1):
            for m in basis.get(w - k, []):
                admit(w, act_e(k, m))
    return [len(basis.get(w, ())) for w in range(cutoff + 1)]


def specht(job, payload):
    """Closure dimensions agree with the module route; a fitted series
    expands to them."""
    (name,) = job["files"]
    generators = json.loads(job["files"][name])
    info = job["info"]
    dims = module_route_dims(generators, info["n"], info["cutoff"])
    problems = []
    if payload["dims"] != dims:
        problems.append("dims %s, module route gives %s" % (payload["dims"], dims))
    if payload["inconclusive"] is False:
        series = payload["series"]
        if _expand(series["num"], series["den"], info["cutoff"]) != dims:
            problems.append("series %s does not expand to the dims" % series)
    return problems


ORACLES = {"slices": slices, "goncharova": goncharova, "window": window, "phi": phi, "specht": specht}


def check(job, stdout: bytes):
    """Problems found in one job's output (empty when it passes)."""
    try:
        payload = json.loads(stdout)
        return ORACLES[job["oracle"]](job, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable output: %r" % (exc,)]
