"""Command-line interface.

Subcommands: phi, shift, span, hilbert, homology, weights, specht.  Output
is deterministic (sorted JSON keys, fixed indentation, trailing newline) so
runs are byte-for-byte reproducible.  Exit codes: 0 success, 1 a computed
certificate came back false, 2 a search or resource limit was hit, a fit was
inconclusive or a relation harvest was not closed in its window, 64 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from bisect import bisect_right
from collections import Counter
from math import comb, inf

from .exact import ResourceLimitError, format_rat, parse_rat
from .liealg import AlgebraDescriptor
from .pbw_hilbert import (
    associated_graded_presentation,
    groebner_self_test,
    hilbert_series,
    module_groebner,
    partial_sum_polynomial,
)
from .spanning import (
    DEFAULT_BOUND,
    DEFAULT_CUTOFF,
    MAX_INTERPOLATION_R,
    SearchExhaustedError,
    dilated_generators,
    find_good_shift,
    shift_determinant,
    spanning_certificate,
    spanning_generators,
)
from .specht import closure_basis, tspace_series
from .tensormod import ModuleDescriptor, decompose_coinduced, graded_dimension
from . import homology as hm

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_LIMIT = 2
EXIT_USAGE = 64

# pattern entries a `weights` walk may visit, dim V_lambda * C(n, 2); the
# walk takes about 0.5 us an entry, so a budget of 2000000 allows about 1 s
_WALK_ENTRY_BUDGET = 100 * hm.DEFAULT_DIM_LIMIT


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _rat_vector(text: str, r: int = None):
    parts = [p.strip() for p in text.split(",")] if text else []
    vec = tuple(parse_rat(p) for p in parts)
    if r is not None and len(vec) != r:
        raise ValueError("expected %d comma-separated rationals, got %d" % (r, len(vec)))
    return vec


def _int_vector(text: str):
    return tuple(int(p.strip()) for p in text.split(",")) if text else ()


def _parse_algebra(text: str) -> AlgebraDescriptor:
    """\"W:n\", \"L{d}:n\", or \"Lsum:n\"."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError("algebra must look like W:n, L<d>:n, or Lsum:n")
    n = int(tail)
    if head == "W":
        return AlgebraDescriptor(n, d=0, flavor="W")
    if head == "Lsum":
        return AlgebraDescriptor(n, d=1, flavor="Lsum")
    if head.startswith("L") and head[1:].isdigit():
        return AlgebraDescriptor(n, d=int(head[1:]), flavor="L")
    raise ValueError("unknown algebra %r" % text)


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _format_poly(coeffs) -> str:
    """The polynomial in N with these ascending coefficients, highest power
    first: ``N^3 - 1/2*N + 2``, or ``0``."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        body = format_rat(abs(c))
        if k:
            mono = "N^%d" % k if k > 1 else "N"
            body = mono if abs(c) == 1 else "%s*%s" % (body, mono)
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    text = " ".join(terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _window(text: str) -> int:
    """A nonnegative integer: a rank, a weight or degree window, a shift
    search bound or a size limit."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _refuse_over(count: int, what: str):
    """Refuse, before any work, an input whose count of what it would
    enumerate exceeds the default dimension limit."""
    if count > hm.DEFAULT_DIM_LIMIT:
        raise ResourceLimitError("%s exceed the limit %d" % (what, hm.DEFAULT_DIM_LIMIT))


def _check_cutoff(cutoff: int, r: int):
    """Refuse a cutoff whose monomial count up to it in r variables,
    C(cutoff + r, r), exceeds the default dimension limit."""
    _refuse_over(comb(cutoff + r, r), "cutoff %d: C(cutoff + %d, %d) monomials" % (cutoff, r, r))


def _check_weight_dim(lam):
    """Refuse, before the walk over its interlacing patterns, a dominant weight
    of n entries when C(n, 2), the pattern entries below the top row, or
    dim V_lam = prod_(i<j) (lam_i - lam_j + j - i)/(j - i) (Weyl), the pattern
    count, exceeds the default dimension limit, or when the walk's entry
    count dim V_lam * C(n, 2) exceeds _WALK_ENTRY_BUDGET.  A weight that is
    not dominant is left to weight_support, which refuses it as bad input.
    Pairs with equal entries have factor 1 and are skipped; every other factor
    of a dominant weight is above 1, so the product stops as soon as it passes
    the limit."""
    if any(a < b for a, b in zip(lam, lam[1:])):
        return
    n = len(lam)
    entries = comb(n, 2)
    _refuse_over(
        entries, "n = %d: C(%d, 2) = %d pattern entries below the top row" % (n, n, entries)
    )
    neg = [-a for a in lam]  # ascending: bisect finds the end of each run
    num = den = 1
    for i, a in enumerate(lam):
        for j in range(bisect_right(neg, -a), n):
            num, den = num * (a - lam[j] + j - i), den * (j - i)
            if num > hm.DEFAULT_DIM_LIMIT * den:
                raise ResourceLimitError(
                    "weight %s: dim V_lambda exceeds the limit %d"
                    % (",".join(map(str, lam)), hm.DEFAULT_DIM_LIMIT)
                )
    dim = num // den
    if dim * entries > _WALK_ENTRY_BUDGET:
        raise ResourceLimitError(
            "n = %d: dim V_lambda = %d patterns of C(%d, 2) = %d entries, %d in all, "
            "exceed the walk budget %d"
            % (n, dim, n, entries, dim * entries, _WALK_ENTRY_BUDGET)
        )


def _module(args) -> ModuleDescriptor:
    """The tensor module of --r, --lam and --mu."""
    return ModuleDescriptor(args.r, _rat_vector(args.lam, args.r), _rat_vector(args.mu, args.r))


def _lines(lines) -> str:
    return "\n".join(lines) + "\n"


def _dims_csv(dims) -> str:
    """The ``w,dim`` table of a dimension sequence."""
    return _lines(["w,dim"] + ["%d,%d" % wd for wd in enumerate(dims)])


def _table_csv(table, p_max: int, w_max: int) -> str:
    """The homology table: one row per homological degree, one column per
    weight."""
    weights = range(w_max + 1)
    rows = [["p\\w", *weights]] + [[p, *(table[p, w] for w in weights)] for p in range(p_max + 1)]
    return _lines(",".join(map(str, row)) for row in rows)


# -- subcommands
#
# Each _cmd_* parses and checks its input and computes its result, then
# returns (exit code, payload, views): the payload is the JSON object, and
# views maps every other format the subcommand offers to a zero-argument
# callable that renders it, so a run renders only the format it prints.
# main alone picks the format and writes it.


def _cmd_phi(args):
    # the degree-r slice has C(2r - 1, r) monomials, whatever --max-r says;
    # that is at least 2^(r - 1), so once 2^(r - 1) passes the limit r is
    # refused on its own, before any work that grows with it
    r = args.r
    if r > hm.DEFAULT_DIM_LIMIT.bit_length():
        _refuse_over(inf, "r = %d: C(%d, %d) slice monomials" % (r, 2 * r - 1, r))
    dim = comb(2 * r - 1, r) if r else 1
    _refuse_over(dim, "r = %d: C(%d, %d) = %d slice monomials" % (r, 2 * r - 1, r, dim))
    desc = _module(args)
    coeffs = shift_determinant(desc, max_r=args.max_r)
    poly = _format_poly(coeffs)
    payload = {**desc.to_dict(), "poly": poly, "coeffs": [format_rat(c) for c in coeffs]}
    return EXIT_OK, payload, {"text": lambda: poly + "\n"}


def _cmd_shift(args):
    desc = _module(args)
    _check_cutoff(args.cutoff, args.r)
    N, cert = find_good_shift(desc, bound=args.bound, cutoff=args.cutoff)
    views = {"text": lambda: "N = %s  verdict = %s\n" % (",".join(map(str, N)), cert["verdict"])}
    return EXIT_OK if cert["verdict"] else EXIT_FALSE, cert, views


def _cmd_span(args):
    desc = _module(args)
    _check_cutoff(max(args.cutoff, args.gen_cutoff), args.r)
    if args.d < 1:
        raise ValueError("dilation degree must be >= 1")
    _refuse_over(args.d**args.r, "--d %d: %d^%d residue vectors" % (args.d, args.d, args.r))
    if args.d == 1:
        S = spanning_generators(desc, cutoff=args.gen_cutoff, bound=args.bound)
    else:
        S = dilated_generators(desc, args.d, cutoff=args.gen_cutoff, bound=args.bound)
    cert = spanning_certificate(S, desc, args.cutoff, d=args.d)
    views = {
        "text": lambda: _lines(
            ["generators (%d):" % len(cert["generators"])]
            + ["  " + ",".join(map(str, g)) for g in cert["generators"]]
            + ["verdict = %s" % cert["verdict"]]
        )
    }
    return EXIT_OK if cert["verdict"] else EXIT_FALSE, cert, views


def _cmd_hilbert(args):
    desc = _module(args)
    gen_cutoff = max(args.r, DEFAULT_CUTOFF)
    _check_cutoff(max(args.cutoff, gen_cutoff), args.r)
    S = spanning_generators(desc, cutoff=gen_cutoff, bound=args.bound)
    # no relation of a generator above the cutoff is harvested, so it would
    # enter the series as a free generator; the heaviest one is named
    top = max(S, key=sum)
    if sum(top) > args.cutoff:
        raise ResourceLimitError(
            "generator %s has weight %d above the cutoff %d"
            % (",".join(map(str, top)), sum(top), args.cutoff)
        )
    pres = associated_graded_presentation(desc, list(S), args.cutoff)
    gb = module_groebner(pres)
    if not groebner_self_test(gb):
        raise ResourceLimitError("module basis failed its confluence self-test")
    series = hilbert_series(gb)
    dims = series.expand(args.cutoff)
    for w, (dim, rank) in enumerate(zip(dims, pres.harvest_ranks)):
        if dim != rank:
            raise ResourceLimitError(
                "relation harvest not closed under g_1..g_%d at weight %d: "
                "the module it presents has dimension %d, the harvest rank is %d"
                % (args.r, w, dim, rank)
            )
    expected = [graded_dimension(desc, w) for w in range(args.cutoff + 1)]
    by_weight = Counter(  # relations by the weight of their lowest term
        min(gb.weight(pos, expo) for pos, expo in rel) for rel in gb.relations
    )
    payload = {
        **desc.to_dict(),
        "generators": [list(g) for g in S],
        "series": series.to_dict(),
        "dims": dims,
        "dims_match": dims == expected,
        "relations_by_weight": {str(k): v for k, v in sorted(by_weight.items())},
        "cutoff": args.cutoff,
    }
    try:
        coeffs, d, c = partial_sum_polynomial(series, args.cutoff)
        payload["partial_sum"] = {
            "degree": d,
            "coeffs": [format_rat(x) for x in coeffs],
            "normalized_leading": c,
        }
        code = EXIT_OK
    except ValueError as exc:
        payload["partial_sum"] = {"error": str(exc)}
        code = EXIT_LIMIT
    views = {
        "csv": lambda: _dims_csv(dims),
        "text": lambda: "num=%(num)s den=%(den)s" % payload["series"] + " dims=%s\n" % dims,
    }
    return code if dims == expected else EXIT_FALSE, payload, views


def _cmd_homology(args):
    alg = _parse_algebra(args.algebra)
    lam, mu = _rat_vector(args.lam), _rat_vector(args.mu)
    if len(lam) != len(mu):
        raise ValueError("lambda and mu must have the same length")
    desc = ModuleDescriptor(len(lam), lam, mu)
    table = hm.homology_table(alg, desc, args.p_max, args.w_max, dim_limit=args.dim_limit)
    payload = {
        "algebra": alg.label(),
        "p_max": args.p_max,
        "w_max": args.w_max,
        "nonzero": [
            {"p": p, "w": w, "dim": table[p, w]}
            for p in range(args.p_max + 1)
            for w in range(args.w_max + 1)
            if table[p, w]
        ],
    }
    return EXIT_OK, payload, {"csv": lambda: _table_csv(table, args.p_max, args.w_max)}


def _cmd_weights(args):
    lam = _int_vector(args.lam)
    n = len(lam)
    _check_weight_dim(lam)
    modules = decompose_coinduced(lam, n)
    # module T_(alpha_1, 0) x ... x T_(alpha_n, 0) for each weight alpha
    support = [(tuple(int(a) for a in d.lam), m) for d, m in modules]
    payload = {
        "lambda": list(lam),
        "n": n,
        "weights": [{"alpha": list(alpha), "mult": m} for alpha, m in support],
        "total_dim": sum(m for _, m in support),
        "modules": [
            {
                "lambda": [format_rat(x) for x in d.lam],
                "mu": [format_rat(x) for x in d.mu],
                "mult": m,
            }
            for d, m in modules
        ],
    }
    views = {
        "csv": lambda: _lines(
            ["alpha,mult"] + ["%s,%d" % (" ".join(map(str, alpha)), m) for alpha, m in support]
        ),
        "text": lambda: _lines(["%s  x%d" % (alpha, m) for alpha, m in support]),
    }
    return EXIT_OK, payload, views


def _load_generators(path: str):
    """The generators of a JSON list of {"a1,...,an": rational} objects, as
    {exponent tuple: Fraction} dicts, and n.  Zero coefficients are dropped
    and one exponent written twice is summed."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError("generator file must be a non-empty JSON list")
    gens = []
    n = None
    for entry in data:
        if not isinstance(entry, dict) or not entry:
            raise ValueError("each generator must be a non-empty JSON object")
        terms = {}
        for key, val in entry.items():
            expo = tuple(int(p.strip()) for p in key.split(","))
            if n is None:
                n = len(expo)
            elif len(expo) != n:
                raise ValueError("inconsistent exponent lengths in generator file")
            if min(expo) < 0:
                raise ValueError("bad exponent vector %r" % (expo,))
            c = terms.pop(expo, 0) + parse_rat(str(val))
            if c:
                terms[expo] = c
        gens.append(terms)
    return gens, n


def _cmd_specht(args):
    gens, n = _load_generators(args.generators)
    _check_cutoff(args.cutoff, n)
    # the closure of a generator above the cutoff is not seen in the window,
    # so no fit of the window could stand for the series
    for i, g in enumerate(gens, 1):
        top = max(map(sum, g), default=0)
        if top > args.cutoff:
            raise ResourceLimitError(
                "generator %d has a component of degree %d above the cutoff %d"
                % (i, top, args.cutoff)
            )
    ts = closure_basis(gens, n, args.cutoff)
    fit = tspace_series(ts)
    payload = {
        "n": n,
        "cutoff": args.cutoff,
        "dims": fit["dims"],
        "inconclusive": fit["inconclusive"],
    }
    if not fit["inconclusive"]:
        payload["series"] = {"num": fit["num"], "den": fit["den"]}
    views = {
        "csv": lambda: _dims_csv(fit["dims"]),
        "text": lambda: "dims=%s inconclusive=%s\n" % (fit["dims"], fit["inconclusive"]),
    }
    return EXIT_LIMIT if fit["inconclusive"] else EXIT_OK, payload, views


def _add_common(p, formats=("json", "csv", "text")):
    """--format, limited to the formats the subcommand renders, and --output."""
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--output", help="write to this path instead of stdout")


def _add_module_params(p):
    p.add_argument("--r", type=_window, required=True, help="number of tensor factors")
    p.add_argument("--lam", default="", help="comma-separated rationals, length r")
    p.add_argument("--mu", default="", help="comma-separated rationals, length r")


def build_parser() -> _Parser:
    parser = _Parser(prog="vflie", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="shift determinant polynomial in N")
    _add_module_params(p)
    p.add_argument("--max-r", type=_window, default=MAX_INTERPOLATION_R)
    _add_common(p, ("json", "text"))
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("shift", help="find a certified graded-basis shift")
    _add_module_params(p)
    p.add_argument("--cutoff", type=_window, default=DEFAULT_CUTOFF)
    p.add_argument("--bound", type=_window, default=DEFAULT_BOUND)
    _add_common(p, ("json", "text"))
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("span", help="spanning generators with certificate")
    _add_module_params(p)
    p.add_argument("--d", type=int, default=1, help="restrict to e_d, e_2d, ...")
    p.add_argument("--cutoff", type=_window, default=10, help="verification cutoff")
    p.add_argument("--gen-cutoff", type=_window, default=DEFAULT_CUTOFF)
    p.add_argument("--bound", type=_window, default=DEFAULT_BOUND)
    _add_common(p, ("json", "text"))
    p.set_defaults(func=_cmd_span)

    p = sub.add_parser("hilbert", help="graded module presentation and Hilbert series")
    _add_module_params(p)
    p.add_argument("--cutoff", type=_window, default=10, help="relation harvest cutoff")
    p.add_argument("--bound", type=_window, default=DEFAULT_BOUND)
    _add_common(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("homology", help="Chevalley-Eilenberg homology table")
    p.add_argument("--algebra", required=True, help="W:n, L<d>:n, or Lsum:n")
    p.add_argument("--lam", default="", help="tensor coefficients: lambda vector")
    p.add_argument("--mu", default="", help="tensor coefficients: mu vector")
    p.add_argument("--p-max", type=_window, default=2)
    p.add_argument("--w-max", type=_window, default=8)
    p.add_argument("--dim-limit", type=_window, default=hm.DEFAULT_DIM_LIMIT)
    _add_common(p, ("json", "csv"))
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("weights", help="weight support of the gl_n module V_lambda")
    p.add_argument("--lam", required=True, help="comma-separated integers, dominant")
    _add_common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("specht", help="substitution-closure dimensions and series")
    p.add_argument("--generators", required=True, help="JSON file of generators")
    p.add_argument("--cutoff", type=_window, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_specht)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code, payload, views = args.func(args)
        _emit(args, views[args.format]() if args.format in views else _json(payload))
        return code
    except (SearchExhaustedError, ResourceLimitError) as exc:
        sys.stderr.write("limit: %s\n" % exc)
        return EXIT_LIMIT
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
