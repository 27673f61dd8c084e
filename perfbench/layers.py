"""Per-layer metrics from the spans that tracer.py writes, one file per job.

A span's self time is its duration minus the durations of the spans nested
directly inside it; a layer's self time is the sum over its spans.  Layers
are the package modules; ``exact`` also reports its two kernels, the
echelon (``Echelon`` methods) and dense determinants, on their own.
"""

from __future__ import annotations

import json

from tracer import LAYERS

ECHELON = ("exact.Echelon.insert", "exact.Echelon.reduce")
DET = ("exact.SparseMat.det", "exact.det_symbolic")

# counters: metric -> span names whose calls it counts
CALLS = {
    "tensormod.act_e_calls": ("tensormod.act_e",),
    "tensormod.act_e_coordinate_calls": ("tensormod.act_e_coordinate",),
    "tensormod.act_word_calls": ("tensormod.act_word",),
    "exact.echelon_inserts": ("exact.Echelon.insert",),
    "exact.det_calls": DET,
    "spanning.certificate_calls": ("spanning.graded_basis_certificate", "spanning.spanning_certificate"),
    "spanning.det_value_calls": ("spanning.shift_determinant_value",),
    "spanning.shift_search_calls": ("spanning.find_good_shift",),
    "homology.boundary_calls": ("homology.boundary_matrix",),
    "liealg.bracket_calls": ("liealg.bracket_basis", "liealg.bracket"),
    "specht.ladder_calls": ("specht.infinitesimal_act",),
}

# (name, unit, better) of every metric summarize() returns
METRICS = (
    [("%s.self_s" % layer, "s", "lower") for layer in LAYERS]
    + [("exact.echelon_self_s", "s", "lower"), ("exact.det_self_s", "s", "lower")]
    + [(name, "count", "lower") for name in CALLS]
    + [
        ("exact.echelon_dependent_ratio", "ratio", "lower"),
        ("exact.det_max_bits", "bits", "lower"),
        ("homology.boundary_nnz", "count", "lower"),
        ("homology.max_slice_dim", "count", "lower"),
        ("pbw_hilbert.groebner_s", "s", "lower"),
        ("pbw_hilbert.relations_in", "count", "lower"),
        ("pbw_hilbert.relations_out", "count", "lower"),
        ("specht.closure_dim", "count", "lower"),
    ]
)


def load(path):
    """(names, spans) of one job's span file."""
    with open(path) as fh:
        data = json.load(fh)
    return data["names"], data["spans"]


def summarize(span_files):
    """Per-layer metrics summed over the jobs whose spans are given."""
    out = {name: 0 for name, _, _ in METRICS}
    dependent = 0
    for path in span_files:
        names, spans = load(path)
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_id, start, end, parent, value) in enumerate(spans):
            name = names[name_id]
            self_s = end - start - child_time[i]
            out[name.split(".", 1)[0] + ".self_s"] += self_s
            if name in ECHELON:
                out["exact.echelon_self_s"] += self_s
            elif name in DET:
                out["exact.det_self_s"] += self_s
                if value is not None:
                    out["exact.det_max_bits"] = max(out["exact.det_max_bits"], value)
            if name == "exact.Echelon.insert":
                dependent += value
            elif name == "homology.boundary_matrix":
                out["homology.boundary_nnz"] += value
            elif name == "homology.chain_basis":
                out["homology.max_slice_dim"] = max(out["homology.max_slice_dim"], value)
            elif name == "pbw_hilbert.module_groebner":
                out["pbw_hilbert.groebner_s"] += end - start
                out["pbw_hilbert.relations_in"] += value[0]
                out["pbw_hilbert.relations_out"] += value[1]
            elif name == "specht.closure_basis":
                out["specht.closure_dim"] += value
        counts = {}
        for span in spans:
            counts[names[span[0]]] = counts.get(names[span[0]], 0) + 1
        for metric, counted in CALLS.items():
            out[metric] += sum(counts.get(name, 0) for name in counted)
    inserts = out["exact.echelon_inserts"]
    out["exact.echelon_dependent_ratio"] = dependent / inserts if inserts else 0.0
    return out
