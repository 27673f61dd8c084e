"""Command-line interface: output formats, determinism, exit codes."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from math import comb

import pytest
from _reference import weyl_dim

from vflie import cli, homology, spanning, tensormod
from vflie.cli import main
from vflie.pbw_hilbert import RationalSeries


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


def test_phi_json():
    code, out, _ = run_cli(["phi", "--r", "2", "--lam", "0,0", "--mu", "0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == "N^4 + N^3"
    assert payload["coeffs"] == ["0", "0", "0", "1", "1"]


def test_phi_text_format():
    code, out, _ = run_cli(["phi", "--r", "1", "--lam", "1/2", "--mu", "3", "--format", "text"])
    assert code == 0
    assert out == "N + 4\n"


def test_shift_certificate():
    code, out, _ = run_cli(["shift", "--r", "1", "--lam", "0", "--mu", "0", "--cutoff", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == [1]
    assert payload["verdict"] is True
    assert [w["weight"] for w in payload["weights"]] == list(range(7))


def test_span_certificate():
    code, out, _ = run_cli(["span", "--r", "2", "--lam", "0,0", "--mu", "0,0", "--cutoff", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True
    assert payload["d"] == 1
    assert [0, 0] in payload["generators"]


def test_span_dilated():
    code, out, _ = run_cli(
        ["span", "--r", "1", "--lam", "0", "--mu", "0", "--d", "2", "--cutoff", "8"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2
    assert payload["generators"] == [[0], [1], [2]]


def test_span_dilated_honours_bound():
    # --bound limits the shift search of every residue module
    argv = ["span", "--r", "1", "--lam=-3", "--mu=0", "--cutoff", "8", "--d", "2"]
    assert run_cli(argv)[0] == 0
    code, out, err = run_cli(argv + ["--bound", "0"])
    assert code == 2 and out == "", err
    assert "bound 0" in err, err


def test_hilbert_pipeline():
    code, out, _ = run_cli(["hilbert", "--r", "2", "--lam", "0,0", "--mu", "0,0", "--cutoff", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == {"num": [1], "den": [1, -2, 1]}
    assert payload["dims_match"] is True
    assert payload["partial_sum"]["degree"] == 2
    assert payload["partial_sum"]["normalized_leading"] == 1


def test_homology_csv():
    code, out, _ = run_cli(
        ["homology", "--algebra", "L1:1", "--p-max", "2", "--w-max", "10", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p\\w,0,1,2,3,4,5,6,7,8,9,10"
    assert lines[1].startswith("0,1,0")
    assert lines[2] == "1,0,1,1,0,0,0,0,0,0,0,0"
    assert lines[3] == "2,0,0,0,0,0,1,0,1,0,0,0"


def test_homology_json_tensor_coefficients():
    code, out, _ = run_cli(
        ["homology", "--algebra", "L1:1", "--lam", "1", "--mu", "0", "--p-max", "1", "--w-max", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra"] == "L1:1"
    assert {"p": 1, "w": 2, "dim": 1} in payload["nonzero"]


def test_weights_json():
    code, out, _ = run_cli(["weights", "--lam", "2,1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["total_dim"] == 2
    assert {"alpha": [2, 1], "mult": 1} in payload["weights"]


def test_weights_walks_the_patterns_once(monkeypatch):
    # the weights and the modules of every format come from one walk
    real = tensormod.weight_support
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tensormod, "weight_support", counting)
    monkeypatch.setattr(cli, "weight_support", counting, raising=False)
    for fmt in ("json", "csv", "text"):
        calls.clear()
        code, out, _ = run_cli(["weights", "--lam", "2,1,0", "--format", fmt])
        assert code == 0 and out
        assert len(calls) == 1, fmt


def test_weights_long_inputs():
    # one row of the interlacing pattern per entry, no stack frame per entry
    code, out, _ = run_cli(["weights", "--lam", ",".join(["0"] * 60)])
    assert code == 0
    assert json.loads(out)["weights"] == [{"alpha": [0] * 60, "mult": 1}]
    code, out, _ = run_cli(["weights", "--lam", ",".join(["1"] + ["0"] * 59)])
    assert code == 0
    payload = json.loads(out)
    assert payload["total_dim"] == 60
    assert len(payload["weights"]) == 60
    assert all(w["mult"] == 1 and sorted(w["alpha"]) == [0] * 59 + [1] for w in payload["weights"])


def test_weight_dim_guard():
    # the guard refuses exactly the dominant weights above the limit
    rng = random.Random(15)
    outcomes = set()
    for _ in range(300):
        lam = tuple(sorted((rng.randint(0, 12) for _ in range(rng.randint(1, 7))), reverse=True))
        refused = False
        try:
            cli._check_weight_dim(lam)
        except spanning.ResourceLimitError:
            refused = True
        assert refused == (weyl_dim(lam) > 20000), lam
        outcomes.add(refused)
    assert outcomes == {True, False}
    # zeros have only factors 1; a strictly decreasing weight passes the
    # limit after a few factors of its 319600
    for lam in ((0,) * 800, tuple(range(799, -1, -1))):
        start = time.perf_counter()
        try:
            cli._check_weight_dim(lam)
        except spanning.ResourceLimitError:
            pass
        assert time.perf_counter() - start < 0.25


def test_weights_entry_count_guard():
    # every interlacing pattern has C(n, 2) entries below its top row, so the
    # walk costs about dim * n^2; past the limit (n >= 201) the input is
    # refused before it, even for a one-dimensional module
    for lam in ([0] * 3000, [1] + [0] * 1999):
        start = time.perf_counter()
        code, out, err = run_cli(["weights", "--lam", ",".join(map(str, lam))])
        assert time.perf_counter() - start < 0.25
        assert (code, out) == (2, ""), err
        assert err.startswith("limit: n = %d: " % len(lam)) and "20000" in err, err
    code, out, _ = run_cli(["weights", "--lam", ",".join(["0"] * 200)])
    assert code == 0 and json.loads(out)["total_dim"] == 1


def test_weights_walk_budget():
    # n <= 200 passes the entry limit, but the walk visits dim V_lambda *
    # C(n, 2) entries: 19900 patterns of 19900 entries here
    lam = [1, 1] + [0] * 198
    start = time.perf_counter()
    code, out, err = run_cli(["weights", "--lam", ",".join(map(str, lam))])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, ""), err
    assert err.startswith("limit: n = 200: ") and "19900" in err and "2000000" in err, err
    # the budget is exact: 159 * C(159, 2) = 1997199 entries pass, 160 * C(160, 2) do not
    cli._check_weight_dim((1,) + (0,) * 158)
    with pytest.raises(spanning.ResourceLimitError):
        cli._check_weight_dim((1,) + (0,) * 159)


def test_specht_subcommand(tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([{"1,1": "1"}]))
    code, out, _ = run_cli(["specht", "--generators", str(path), "--cutoff", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5]
    assert payload["series"] == {"num": [0, 0, 1], "den": [1, -1, -1, 1]}


def test_specht_generator_file_checks(tmp_path):
    def run(entries, cutoff="4"):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(entries))
        return run_cli(["specht", "--generators", str(path), "--cutoff", cutoff])

    code, out, err = run([{"-1,0": 1}])
    assert code == 64 and out == "" and "(-1, 0)" in err, err
    assert run([{"1,0": 1, "1": 1}])[0] == 64  # mixed exponent lengths
    assert run([{"1,0": 1}, {"1,0,0": 1}])[0] == 64
    assert run([{"1,0": 1.5}])[0] == 64  # not a rational literal
    # one exponent written two ways is one term
    summed = run([{"1,0": 1, "1, 0": 1}, {"0,2": "1/2"}], cutoff="9")
    assert summed[0] == 0 and json.loads(summed[1])["dims"] == [0, 1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert summed == run([{"1,0": 2}, {"0,2": "1/2"}], cutoff="9")
    # a zero coefficient is dropped; a generator of zeros spans nothing
    code, out, _ = run([{"1,0": 0}])
    assert code == 0 and json.loads(out)["dims"] == [0] * 5


def test_specht_generator_above_cutoff_refused(tmp_path):
    # cut at 12 the closure of x looks like t/(1 - t), but x^7 y^7 adds to
    # the dims from w = 14 on: a generator above the cutoff is refused
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([{"1,0": "1"}, {"7,7": "1"}]))
    argv = ["specht", "--generators", str(path), "--cutoff"]
    assert run_cli(argv + ["12"]) == (
        2, "", "limit: generator 2 has a component of degree 14 above the cutoff 12\n"
    )
    code, out, _ = run_cli(argv + ["16"])
    assert code == 2 and json.loads(out)["dims"][12:] == [1, 1, 2, 2, 3]


def test_specht_generator_terms_add_up(tmp_path):
    # one exponent written two ways is one term; terms that cancel are dropped
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([{"1,0": 1, "1, 0": -1}, {"1,1": 1}]))
    alone = tmp_path / "alone.json"
    alone.write_text(json.dumps([{"1,1": 1}]))
    argv = ["specht", "--cutoff", "6", "--generators"]
    assert run_cli(argv + [str(gens)]) == run_cli(argv + [str(alone)])
    assert cli._load_generators(str(gens)) == ([{}, {(1, 1): 1}], 2)
    # a negative exponent is refused even with a zero coefficient
    gens.write_text(json.dumps([{"-1,0": 0}, {"1,1": 1}]))
    code, _, err = run_cli(argv + [str(gens)])
    assert code == 64 and "(-1, 0)" in err, err


def test_byte_determinism(tmp_path):
    argv = ["span", "--r", "2", "--lam", "0,0", "--mu", "0,0", "--cutoff", "6"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    out_path = tmp_path / "cert.json"
    code, _, _ = run_cli(argv + ["--output", str(out_path)])
    assert code == 0
    assert out_path.read_text() == first[1]


def test_usage_errors_exit_64(tmp_path):
    assert run_cli(["phi", "--r", "2", "--lam", "0", "--mu", "0,0"])[0] == 64
    assert run_cli(["nonsense"])[0] == 64
    assert run_cli(["homology", "--algebra", "Q:1"])[0] == 64
    assert run_cli(["weights", "--lam", "1,2"])[0] == 64
    assert run_cli(["weights", "--lam="])[0] == 64  # an empty weight
    # not dominant, though its Weyl product is positive and large
    assert run_cli(["weights", "--lam", "0,500,0,1000"])[0] == 64
    # not dominant, though a dominant prefix already passes the size limit
    assert run_cli(["weights", "--lam", "1000,0,0,0,0,0,0,5"])[0] == 64
    assert run_cli(["specht", "--generators", "/does/not/exist.json"])[0] == 64
    # negative windows are bad input, not an empty or vacuous answer
    assert run_cli(["span", "--r", "2", "--lam", "0,0", "--mu", "0,0", "--cutoff", "-1"])[0] == 64
    assert run_cli(["span", "--r", "1", "--lam", "0", "--mu", "0", "--gen-cutoff", "-1"])[0] == 64
    for d in ("0", "-200"):  # bad input even where d^r exceeds the limit
        assert run_cli(["span", "--r", "2", "--lam=0,0", "--mu=0,0", "--d", d])[0] == 64
    assert run_cli(["shift", "--r", "1", "--lam", "0", "--mu", "0", "--cutoff", "-1"])[0] == 64
    assert run_cli(["hilbert", "--r", "2", "--lam", "0,0", "--mu", "0,0", "--cutoff", "-1"])[0] == 64
    assert run_cli(["homology", "--algebra", "L1:1", "--p-max", "-1"])[0] == 64
    assert run_cli(["homology", "--algebra", "L1:1", "--w-max", "-2"])[0] == 64
    # so are a negative search bound or size limit, not an exhausted search
    assert run_cli(["shift", "--r", "1", "--lam", "0", "--mu", "0", "--bound", "-1"])[0] == 64
    assert run_cli(["span", "--r", "1", "--lam", "0", "--mu", "0", "--bound", "-1"])[0] == 64
    assert run_cli(["hilbert", "--r", "1", "--lam", "0", "--mu", "0", "--bound", "-1"])[0] == 64
    assert run_cli(["phi", "--r", "1", "--lam", "0", "--mu", "0", "--max-r", "-1"])[0] == 64
    assert run_cli(["homology", "--algebra", "L1:1", "--dim-limit", "-1"])[0] == 64
    # a negative rank is refused by name, before the vectors are read
    code, _, err = run_cli(["phi", "--r", "-1"])
    assert code == 64 and "--r" in err
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([{"1,1": "1"}]))
    assert run_cli(["specht", "--generators", str(gens), "--cutoff", "-1"])[0] == 64
    # a --format the subcommand does not render is refused, not ignored
    for argv in (
        ["phi", "--r", "1", "--lam", "0", "--mu", "0", "--format", "csv"],
        ["shift", "--r", "1", "--lam", "0", "--mu", "0", "--format", "csv"],
        ["span", "--r", "1", "--lam", "0", "--mu", "0", "--format", "csv"],
        ["homology", "--algebra", "L1:1", "--format", "text"],
    ):
        code, out, err = run_cli(argv)
        assert code == 64 and out == "" and "--format" in err, argv


def test_zero_denominator_exit_64():
    code, out, err = run_cli(["phi", "--r", "1", "--lam", "1/0", "--mu", "0"])
    assert code == 64
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


def test_shift_certificate_computed_once(monkeypatch):
    # lam = 1 needs no shift: the search proves N = (0,) at t = 0
    desc = tensormod.ModuleDescriptor(1, (1,), (0,))
    expected = json.dumps(
        spanning.graded_basis_certificate(desc, (0,), 6), sort_keys=True, indent=2
    ) + "\n"
    real = spanning.graded_basis_certificate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spanning, "graded_basis_certificate", counting)
    monkeypatch.setattr(cli, "graded_basis_certificate", counting, raising=False)
    code, out, _ = run_cli(["shift", "--r", "1", "--lam", "1", "--mu", "0", "--cutoff", "6"])
    assert code == 0
    assert len(calls) == 1
    assert out == expected


def test_limit_exit_2():
    code, _, err = run_cli(
        ["phi", "--r", "9", "--lam", ",".join(["0"] * 9), "--mu", ",".join(["0"] * 9)]
    )
    assert code == 2
    assert "limit" in err
    # --max-r defaults to the interpolation cap
    zeros = ",".join(["0"] * 6)
    code, out, err = run_cli(["phi", "--r", "6", "--lam", zeros, "--mu", zeros])
    assert (code, out) == (2, "")
    assert err == "limit: slice determinant interpolation capped at r <= 5 (got r = 6)\n"
    code, _, _ = run_cli(
        ["homology", "--algebra", "L1:1", "--p-max", "2", "--w-max", "9", "--dim-limit", "3"]
    )
    assert code == 2


def _refused_at_once(argv, *texts):
    """argv exits 2 in well under a second, printing nothing, with a
    ``limit:`` line that contains each of texts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # in a child first: without the guard these runs do not end
    proc = subprocess.run(
        [sys.executable, "-m", "vflie.cli"] + argv, capture_output=True, env=env, timeout=20
    )
    assert proc.returncode == 2, argv
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1.0, argv
    assert code == 2 and out == "", argv
    assert err.startswith("limit: ") and all(t in err for t in texts), (argv, err)


def test_huge_cutoff_refused_at_once(tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps([{"1,1": "1"}]))
    cases = [
        ["span", "--r", "1", "--lam", "0", "--mu", "0", "--cutoff", "100000000"],
        ["span", "--r", "1", "--lam", "0", "--mu", "0", "--gen-cutoff", "100000000"],
        ["shift", "--r", "3", "--lam", "0,0,0", "--mu", "0,0,0", "--cutoff", "100"],
        ["hilbert", "--r", "2", "--lam", "0,0", "--mu", "0,0", "--cutoff", "1000"],
        ["specht", "--generators", str(gens), "--cutoff", "100000000"],
    ]
    for argv in cases:
        _refused_at_once(argv, "cutoff", "20000")


def test_huge_weight_and_dilation_refused_at_once():
    # dim V_lambda by the Weyl formula (1418299634202451 here): that many
    # interlacing patterns; the product stops once it passes the limit
    _refused_at_once(["weights", "--lam", "1000,0,0,0,0,0,0"], "1000,0,0,0,0,0,0", "20000")
    # one shift search per residue vector, 100^3 of them
    argv = ["span", "--r", "3", "--lam=0,0,0", "--mu=0,0,0", "--d", "100", "--cutoff", "3"]
    _refused_at_once(argv, "100^3", "20000")


def test_huge_homology_window_refused_at_once():
    # each slice is counted before the fields of its weight are numbered, so
    # the first slice over the limit is refused before the window grows
    cases = [
        ("L1:4", "1", "100000", "p=2, w=5"),
        ("L1:120", "1", "1", "(p=1, w=1) has dimension 871200"),
        ("L1:200", "1", "1", "(p=1, w=1) has dimension 4020000"),
        ("W:40", "2", "0", "(p=2, w=0) has dimension 2591200"),
    ]
    for algebra, p_max, w_max, text in cases:
        argv = ["homology", "--algebra", algebra, "--p-max", p_max, "--w-max", w_max]
        _refused_at_once(argv, text, "20000")


def test_coordinate_sum_refused_before_any_rank(monkeypatch):
    # every slice of the window is counted before any table is built, so the
    # refusal comes before the first rank of a one-variable factor
    calls = []
    real = homology.rank_of_vectors

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(homology, "rank_of_vectors", counting)
    argv = ["homology", "--algebra", "Lsum:3", "--lam=1/2,-1,1/2", "--mu=0,1/3,0"]
    argv += ["--p-max", "4", "--w-max", "12", "--dim-limit", "500"]
    assert run_cli(argv) == (
        2, "", "limit: chain slice (p=2, w=7) has dimension 516 > limit 500\n"
    )
    assert calls == []
    assert run_cli(["homology", "--algebra", "Lsum:2", "--lam=1", "--mu=0"])[0] == 64


def test_huge_phi_rank_refused_at_once():
    # C(2r - 1, r) monomials in the degree-r slice, whatever --max-r says
    zeros = ",".join(["0"] * 12)
    argv = ["phi", "--r", "12", "--max-r", "12", "--lam=" + zeros, "--mu=" + zeros]
    _refused_at_once(argv, "C(23, 12) = 1352078", "20000")
    _refused_at_once(["phi", "--r", "12", "--max-r", "12"], "1352078", "20000")


def test_phi_rank_past_any_binomial_refused_at_once():
    # C(2r - 1, r) >= 2^(r - 1) passes the limit from r = 16 on, so such an r
    # is refused on its own: the binomial is neither computed nor printed
    for r in ("16", "100000", "1000000"):
        text = "r = %s: C(%d, %s) slice monomials exceed" % (r, 2 * int(r) - 1, r)
        _refused_at_once(["phi", "--r", r], text, "20000")


def test_hilbert_closure_refused():
    # harvests not closed under g_1..g_r in the window: the first weight where
    # the presented module falls below the harvest rank is named, and nothing
    # is printed
    cases = [
        (["--r", "3", "--lam=0,0,0", "--mu=0,0,0", "--cutoff", "8"], 6, 27, 28),
        (["--r", "3", "--lam=1/2,0,1", "--mu=1/3,0,0", "--cutoff", "7"], 5, 20, 21),
        (["--r", "2", "--lam=1,0", "--mu=1,-2", "--cutoff", "12"], 6, 6, 7),
        (["--r", "2", "--lam=1/2,0", "--mu=1/3,0", "--cutoff", "12"], 4, 4, 5),
    ]
    for argv, w, dim, rank in cases:
        code, out, err = run_cli(["hilbert"] + argv)
        assert code == 2 and out == "", argv
        assert "weight %d: " % w in err, (argv, err)
        assert "dimension %d, the harvest rank is %d" % (dim, rank) in err, (argv, err)


# (r, lambda, mu, cutoffs, generator, its weight): inputs whose spanning set
# has a generator above the cutoff
ABOVE_CUTOFF = [
    ("1", "-2", "-2", (4, 5, 6), None, None),
    ("1", "-2", "0", (4,), "5", 5),
    ("2", "-2,0", "-2,0", (5, 6, 8), None, None),
    ("2", "-1/2,1/3", "-1,-1", (5, 6), None, None),
    ("2", "-1,3", "-1,1", (5, 6), "4,5", 9),
]


def test_hilbert_generator_above_cutoff_refused():
    # no relation of a generator above the cutoff is harvested, so it would
    # enter the series as a free generator: the input is refused before the
    # harvest, naming the generator, its weight and the cutoff
    for r, lam, mu, cutoffs, gen, weight in ABOVE_CUTOFF:
        for cutoff in cutoffs:
            argv = ["hilbert", "--r", r, "--lam=" + lam, "--mu=" + mu, "--cutoff", str(cutoff)]
            code, out, err = run_cli(argv)
            assert code == 2 and out == "", argv
            assert "above the cutoff %d\n" % cutoff in err, (argv, err)
            if gen is not None and cutoff == cutoffs[0]:
                assert err == "limit: generator %s has weight %d above the cutoff %d\n" % (
                    gen, weight, cutoff
                )


def test_hilbert_series_expands_to_the_module_dimensions():
    # an input that passes is printed with a series that holds past the
    # cutoff: dim T^r(w) = C(w + r - 1, r - 1) through w = 40
    for argv in (
        ["--r", "1", "--lam=-2", "--mu=0", "--cutoff", "12"],
        ["--r", "1", "--lam=-2", "--mu=-2", "--cutoff", "8"],
        ["--r", "1", "--lam=1/2", "--mu=-1/3", "--cutoff", "8"],
        ["--r", "2", "--lam=0,0", "--mu=0,0", "--cutoff", "10"],
        ["--r", "2", "--lam=1/2,-1", "--mu=0,1/3", "--cutoff", "10"],
    ):
        code, out, err = run_cli(["hilbert"] + argv)
        assert code == 0, (argv, err)
        payload = json.loads(out)
        r, series = payload["r"], payload["series"]
        expanded = RationalSeries(series["num"], series["den"]).expand(40)
        assert expanded == [comb(w + r - 1, r - 1) for w in range(41)], argv


def test_benchmark_golden_bytes(tmp_path, monkeypatch):
    # the benchmark's recorded phi, hilbert and specht outputs, checked
    # in-process; the specht generator files are rebuilt from the benchmark's
    # seed-0 jobs
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_jobs", os.path.join(bench, "jobs.py"))
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    for job in jobs.job_list("homology_presentation", 0) + list(jobs.PROBES):
        for name, text in job["files"].items():
            (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    with open(os.path.join(bench, "golden.json")) as fh:
        golden = json.load(fh).values()
    entries = [e for e in golden if e["argv"][0] in ("phi", "hilbert", "specht")]
    assert sum(e["argv"][0] == "phi" for e in entries) == 7
    assert {e["argv"][0] for e in entries} == {"phi", "hilbert", "specht"}
    for entry in entries:
        code, out, _ = run_cli(entry["argv"])
        assert code == entry["exit"], entry["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"], entry["argv"]


# (argv, exit code, SHA-256 of stdout) of every subcommand in every --format
# it offers; the specht generator files are written by the test
FORMAT_BYTES = [
    ("phi --r 2 --lam=1/2,0 --mu=1/3,-1 --format json", 0,
     "69502ecdda4a38e6f4165d8d055b515d06bfb74f882120a0f86925e5b8a45eb8"),
    ("phi --r 2 --lam=1/2,0 --mu=1/3,-1 --format text", 0,
     "30ec52f65bd0b4609c5ffc3b4cf0547e1073abc5866133c68988de1453fc6c8c"),
    ("shift --r 2 --lam=0,0 --mu=0,0 --cutoff 6 --format json", 0,
     "f8be1ee7930a44e43db9852b6db387c647dedf0078a74321092d1557f7c26210"),
    ("shift --r 2 --lam=0,0 --mu=0,0 --cutoff 6 --format text", 0,
     "ea4ed9c360d9dde760f1d6a40c425173cb0c07c0ab6da762bd5bdd7c5c62608e"),
    ("span --r 2 --lam=0,1/2 --mu=0,0 --cutoff 6 --format json", 0,
     "7fab66b9431a2b98b7bc1ce9a52b2ecfac1b93a375d8f746dda07132d6a88c61"),
    ("span --r 2 --lam=0,1/2 --mu=0,0 --cutoff 6 --format text", 0,
     "86ee81dbad3706b24a4039a8cfb6ae80e15ee05bbd6237c289c93025218790fe"),
    ("span --r 1 --lam=-3 --mu=0 --gen-cutoff 1 --cutoff 8 --format json", 1,
     "e0eef867211dcde59bcbac0f27bd5479cbf9cfacdf30b70360bb16a904729297"),
    ("span --r 1 --lam=-3 --mu=0 --gen-cutoff 1 --cutoff 8 --format text", 1,
     "a388490c78e34aed31b4ac74e55a6c791e1f02c87b69b779c79164f2b4e2f3c6"),
    ("hilbert --r 2 --lam=0,0 --mu=0,0 --cutoff 10 --format json", 0,
     "3b50186ef483d4c7a69d252ae145191525722594cda3784126e4e61dab6e8cf1"),
    ("hilbert --r 2 --lam=0,0 --mu=0,0 --cutoff 10 --format csv", 0,
     "2d4611f698b9d800d2352bd4281aff22b59e867ce81f2187c0aa1cbb91496ecd"),
    ("hilbert --r 2 --lam=0,0 --mu=0,0 --cutoff 10 --format text", 0,
     "565e88bf6efda63a09669068039bf80071aed51e68235227817cbadad8bdbe5b"),
    ("hilbert --r 1 --lam=0 --mu=0 --cutoff 3 --format json", 2,
     "0237d6e4bfe4cc1067690c5953c3950a87d4fb4f280171d1b0f3d0ef4e6f6a36"),
    ("hilbert --r 1 --lam=0 --mu=0 --cutoff 3 --format csv", 2,
     "e477a6d6cece36eaed469a7358df7747d9fa0e73493ec8c1cb119e338780bfd5"),
    ("hilbert --r 1 --lam=0 --mu=0 --cutoff 3 --format text", 2,
     "bf308bfde149fb642ebc5406899e6dff9e64b3c40040268c3727473c52273fdf"),
    ("homology --algebra L1:1 --lam=1 --mu=0 --p-max 2 --w-max 6 --format json", 0,
     "a4006cbd3f8d7693c14d0ca10be025be82ec1c8134a1c4183ad6b2614116e780"),
    ("homology --algebra L1:1 --lam=1 --mu=0 --p-max 2 --w-max 6 --format csv", 0,
     "9ad35d91cf2464a6ae90749467cffd9a353578b9a1e482172877fc1e044c28e1"),
    ("weights --lam=2,1,0 --format json", 0,
     "e175cc04c97e402415460181e19d0d3ce10b8e912ab288f7254ce14514143fbb"),
    ("weights --lam=2,1,0 --format csv", 0,
     "18fb97041ca10f4b9024d0d53ab79d146ce5007fcc0e785b4bcc9d6729ce44be"),
    ("weights --lam=2,1,0 --format text", 0,
     "9704bca8f9abf5f856e974219536cc943cc7ad8d64b45ff5671ed32c670c5a53"),
    ("specht --generators gens.json --cutoff 8 --format json", 0,
     "9b639351bea17ac250917ed97d64f5fa2de441655808c7c9cc3d99a9093d21e8"),
    ("specht --generators gens.json --cutoff 8 --format csv", 0,
     "e55cd33c4222766a6235c5315d7eb4139b636b060b283755d8206396e2e2423c"),
    ("specht --generators gens.json --cutoff 8 --format text", 0,
     "b52046746d38614f9afff4015496235572c4e055961b7748e80ba431b3d689b7"),
    ("specht --generators gens1.json --cutoff 3 --format json", 2,
     "c4e5de80c5c13331ca9f6915dad4614be23cf1fe2b0e589848ee79de24955202"),
    ("specht --generators gens1.json --cutoff 3 --format csv", 2,
     "9372fad4e77f7571ce21f16e0ab0e07c3f8c20cf63c40e7779321139905c243f"),
    ("specht --generators gens1.json --cutoff 3 --format text", 2,
     "ac2eaa50698808c1e94ac641f27fa4d2f92fc09ad54d536cdad50a669c9b947f"),
]


def test_every_format_bytes(tmp_path, monkeypatch):
    (tmp_path / "gens.json").write_text(json.dumps([{"1,1": "1"}, {"2,0": "1/2", "0,1": "-1"}]))
    (tmp_path / "gens1.json").write_text(json.dumps([{"1,1": "1"}]))
    monkeypatch.chdir(tmp_path)
    for line, exit_code, sha in FORMAT_BYTES:
        code, out, _ = run_cli(line.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, sha), line
    # the table covers exactly the formats each parser offers
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    offered = {
        (name, fmt)
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.dest == "format"
        for fmt in action.choices
    }
    covered = {(line.split()[0], line.split()[-1]) for line, _, _ in FORMAT_BYTES}
    assert covered == offered
