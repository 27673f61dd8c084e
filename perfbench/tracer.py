"""Outside-in layer tracing for one vflie job.

``install()`` wraps the public functions of each layer module (and the
public methods of the exact-arithmetic kernels) and rebinds every reference
to them inside the package, so calls made through ``from .x import f``
bindings are traced too.  Each call records a span (name, start, end,
parent span, value) in memory; ``dump`` writes them out when the job ends.
``value`` carries what a counter needs from the call's result, such as
whether an echelon insert was dependent or the bit size of a determinant.

Private helpers, ``_enum`` and the value types (``MPoly``, ``ModuleElement``,
``LieElement``) are not wrapped: their time counts inside their callers.
"""

import json
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "tensormod", "exact", "liealg", "spanning", "homology", "pbw_hilbert", "specht")

# scalar helpers cheap enough to leave inside their callers
SKIP = {"exact.rat", "exact.parse_rat", "exact.format_rat", "exact.deglex_key"}

# public methods of kernel classes, traced like functions
METHODS = {
    "exact": {"Echelon": ("insert", "reduce"), "SparseMat": ("rank", "det", "kernel_basis")},
}


def _det_bits(args, result):
    if isinstance(result, Fraction):
        return max(result.numerator.bit_length(), result.denominator.bit_length())
    return None


def _nnz(args, result):
    return sum(1 for v in result.entries.values() if v)


def _groebner_sizes(args, result):
    return [len(args[0].relations), len(result.relations)]


VALUES = {
    "exact.Echelon.insert": lambda args, result: int(result is not None),
    "exact.SparseMat.det": _det_bits,
    "exact.det_symbolic": _det_bits,
    "homology.boundary_matrix": _nnz,
    "homology.chain_basis": lambda args, result: len(result),
    "pbw_hilbert.module_groebner": _groebner_sizes,
    "specht.closure_basis": lambda args, result: sum(result.dimensions()),
}


class Trace:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        value_of = VALUES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, None)
            if value_of is not None:
                spans[idx] = (name_id, start, end, parent, value_of(args, result))
            return result

        return traced

    def dump(self, path, job_id):
        spans = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"job": job_id, "names": self.names, "spans": spans}, fh, separators=(",", ":"))


def _targets(mod):
    """(qualified name, owner, attribute, callable) for one layer module."""
    short = mod.__name__.split(".")[-1]
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        name = "%s.%s" % (short, attr)
        if name not in SKIP:
            yield name, mod, attr, obj
    for cls_name, methods in METHODS.get(short, {}).items():
        cls = getattr(mod, cls_name)
        for attr in methods:
            yield "%s.%s.%s" % (short, cls_name, attr), cls, attr, cls.__dict__[attr]


def install():
    """Wrap every layer's public functions; returns the Trace collecting spans."""
    trace = Trace()
    replaced = {}
    for layer in LAYERS:
        mod = sys.modules["vflie." + layer]
        for name, owner, attr, fn in _targets(mod):
            wrapped = trace.wrap(name, fn)
            replaced[id(fn)] = (fn, wrapped)
            setattr(owner, attr, wrapped)
    # rebind the copies that other package modules imported by name
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "vflie" or mod_name.startswith("vflie.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    return trace
