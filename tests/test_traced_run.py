"""Traced benchmark jobs: perfbench/tracer.py wraps the layer functions and
kernel methods it finds by name, so a renamed or deleted one must fail here,
not only in a traced benchmark run."""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

JOBS = [
    ["phi", "--r", "2", "--lam=1/2,0", "--mu=1/3,-1"],
    ["shift", "--r", "2", "--lam=0,0", "--mu=0,0", "--cutoff", "6"],
    ["span", "--r", "2", "--lam=0,1/2", "--mu=0,0", "--cutoff", "6"],
    ["hilbert", "--r", "2", "--lam=0,0", "--mu=0,0", "--cutoff", "10"],
    ["homology", "--algebra", "L1:1", "--p-max", "2", "--w-max", "6"],
    ["specht", "--generators", "gens.json", "--cutoff", "8"],
]

COUNTERS = (
    "exact.det_calls",
    "exact.echelon_inserts",
    "spanning.certificate_calls",
    "liealg.bracket_calls",
    "pbw_hilbert.relations_in",
    "specht.closure_dim",
)


def _run_traced(argv, spans, cwd):
    """One job through perfbench/child.py with tracing on; returns its exit
    code, stderr and the setup stamp it wrote to its pipe."""
    read_end, write_end = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), os.path.join(ROOT, "src"),
             str(write_end), str(spans), argv[0], "--"] + argv,
            cwd=cwd, capture_output=True, pass_fds=(write_end,), timeout=120,
        )
    finally:
        os.close(write_end)
    stamp = os.read(read_end, 64)
    os.close(read_end)
    return proc.returncode, proc.stderr.decode(), stamp


def test_traced_jobs_feed_the_counters(tmp_path, monkeypatch):
    (tmp_path / "gens.json").write_text(json.dumps([{"1,1": "1"}, {"2,0": "1/2", "0,1": "-1"}]))
    span_files = []
    for i, argv in enumerate(JOBS):
        spans = tmp_path / ("spans_%d.json" % i)
        code, err, stamp = _run_traced(argv, spans, tmp_path)
        assert code == 0, (argv, err)
        assert float(stamp) > 0, argv
        span_files.append(str(spans))
    monkeypatch.syspath_prepend(BENCH)
    metrics = importlib.import_module("layers").summarize(span_files)
    for name in COUNTERS:
        assert metrics[name] > 0, name
