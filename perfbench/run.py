"""vflie benchmark: seeded lists of CLI jobs, checked and timed.

    python3 perfbench/run.py --workload certify|homology_presentation|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ./src.  Each
job is a fresh ``vflie`` process, run one after another (a closed loop with
one client, default ``--jobs 1``).  A pass runs the workload's whole job
list; passes repeat while another fits in ``--seconds``, and without tracing
a last, partial pass runs the jobs that still fit.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json: the wall time and CPU time of a pass, each job counted at
its median over the passes of the run, the median job set-up time and the
peak job RSS.  With ``--trace 1`` untraced and traced passes alternate, and
the last line reports the per-subcommand wall times (from the untraced
passes), the per-layer metrics (from the traced ones) and the tracing
overhead.  Every output is checked: exit code, the stdout SHA-256 recorded
in golden.json, byte equality across the passes of the run, and an
independent oracle (oracles.py).  ``--record`` rewrites golden.json from the
default seed.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import jobs as joblists  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402

DEFAULT_SEED = 0
JOB_TIMEOUT_S = 120
RUN_LIMIT_S = 170
COMMANDS = ("shift", "span", "phi", "homology", "hilbert", "specht")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_COMMAND = tuple(("%s_s" % cmd, "s") for cmd in COMMANDS)


class JobResult:
    def __init__(self, job, code, timed_out, wall, setup, cpu, rss_kb, stdout, stderr, spans):
        self.job = job
        self.code = code
        self.timed_out = timed_out
        self.wall = wall
        self.setup = setup
        self.cpu = cpu
        self.rss_kb = rss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.spans = spans


def run_job(job, workdir, spans, deadline):
    """Spawn one job and wait for it; times it from spawn to exit.  With
    a spans path the job runs traced and writes its spans there."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    read_end, write_end = os.pipe()
    argv = [sys.executable, CHILD, SRC, str(write_end), spans or "-", job["id"], "--"] + job["argv"]
    done = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=workdir, stdin=subprocess.DEVNULL, stdout=out, stderr=err, pass_fds=(write_end,)
        )
    os.close(write_end)
    timed_out = []

    def kill():
        if not done.is_set():
            timed_out.append(True)
            os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(1.0, min(JOB_TIMEOUT_S, deadline - start)), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        done.set()
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stamp = os.read(read_end, 64)
    os.close(read_end)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return JobResult(
        job,
        proc.returncode,
        bool(timed_out),
        end - start,
        float(stamp) - start if stamp else None,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        stdout,
        stderr,
        spans if spans and os.path.exists(spans) else None,
    )


def run_pass(job_list, workdir, deadline, trace_tag=None, stop_at=None, expect=None):
    """Run every job once; traced when trace_tag names the pass.  With
    stop_at, skip each job whose expected time (expect, by job id) would
    end it after stop_at."""
    results = []
    for job in job_list:
        if stop_at is not None and time.monotonic() + expect[job["id"]] > stop_at:
            continue
        for name, text in job["files"].items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)
        spans = None
        if trace_tag is not None:
            spans = os.path.join(workdir, "spans-%s-%s.json" % (trace_tag, job["id"]))
        results.append(run_job(job, workdir, spans, deadline))
    return results


def job_key(job):
    text = json.dumps({"argv": job["argv"], "files": job["files"]}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden():
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh)


class Judge:
    """Checks every job result; oracle verdicts are cached per output."""

    def __init__(self, golden):
        self.golden = golden
        self.first_sha = {}
        self.oracle_cache = {}
        self.problems = []

    def __call__(self, res):
        job = res.job
        key = job_key(job)
        sha = hashlib.sha256(res.stdout).hexdigest()
        found = []
        if res.timed_out:
            found.append("timed out")
        elif res.code not in job["exits"]:
            found.append("exit %d: %s" % (res.code, res.stderr.decode(errors="replace")[-300:].strip()))
        if res.setup is None:
            found.append("no set-up time reported")
        recorded = self.golden.get(key)
        if recorded is not None:
            if recorded["sha256"] != sha:
                found.append("stdout differs from the recorded SHA-256")
            if recorded["exit"] != res.code:
                found.append("exit %d, recorded %d" % (res.code, recorded["exit"]))
        if self.first_sha.setdefault(key, sha) != sha:
            found.append("stdout differs between passes of one seed")
        if res.code in job["exits"] and not res.timed_out:
            if (key, sha) not in self.oracle_cache:
                self.oracle_cache[key, sha] = oracles.check(job, res.stdout)
            found += self.oracle_cache[key, sha]
        for problem in found:
            self.problems.append("%s (%s): %s" % (job["id"], " ".join(job["argv"]), problem))
        return not found


def warm_up(workdir):
    """One import of the package before timing, so bytecode caches exist."""
    read_end, write_end = os.pipe()
    proc = subprocess.run(
        [sys.executable, CHILD, SRC, str(write_end), "-", "warmup", "--", "weights", "--lam=1,0"],
        cwd=workdir,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        pass_fds=(write_end,),
        timeout=60,
    )
    os.close(write_end)
    os.close(read_end)
    if proc.returncode != 0:
        raise SystemExit("vflie does not start: %s" % proc.stderr.decode(errors="replace")[-500:])


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace, workdir, judge):
    """Run passes of one workload; returns (metrics, attempted, failed, info)."""
    job_list = joblists.job_list(workload, seed)
    start = time.monotonic()
    budget_end = start + seconds
    deadline = start + RUN_LIMIT_S
    untraced, traced = [], []
    kinds = (False, True) if trace else (False,)
    durations = {False: [], True: []}
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        t0 = time.monotonic()
        if kind:
            traced.append(run_pass(job_list, workdir, deadline, trace_tag="p%d" % turn))
        else:
            untraced.append(run_pass(job_list, workdir, deadline))
        durations[kind].append(time.monotonic() - t0)
        turn += 1
        nxt = kinds[turn % len(kinds)]
        expect = max(durations[nxt] or durations[kind])
        if turn >= len(kinds) and time.monotonic() + expect > budget_end:
            break
        if time.monotonic() + expect > deadline:
            break
    if not trace:
        # fill the rest of the budget with the jobs that still fit
        slowest = {}
        for res in (res for p in untraced for res in p):
            slowest[res.job["id"]] = max(res.wall, slowest.get(res.job["id"], 0.0))
        rest = run_pass(job_list, workdir, deadline, stop_at=min(budget_end, deadline), expect=slowest)
        if rest:
            untraced.append(rest)
    else:
        rest = []
    results = [res for p in untraced + traced for res in p]
    failed = sum(1 for res in results if not judge(res))
    info = {"untraced_passes": len(untraced), "traced_passes": len(traced), "jobs": len(job_list),
            "partial_jobs": len(rest)}

    def pass_sum(p, attr):
        return sum(getattr(res, attr) for res in p)

    def per_job(passes, value, cmd=None):
        """Sum over jobs of the job's median value across the passes."""
        samples = {}
        for p in passes:
            for res in p:
                samples.setdefault(res.job["id"], []).append(value(res))
        return sum(median(samples[job["id"]]) for job in job_list if cmd is None or job["cmd"] == cmd)

    command_s = {cmd: per_job(untraced, lambda res: res.wall, cmd) for cmd in COMMANDS}
    wall = per_job(untraced, lambda res: res.wall)
    metrics = {}
    if not trace:
        metrics["wall_s"] = wall
        metrics["cpu_s"] = per_job(untraced, lambda res: res.cpu)
        metrics["setup_s"] = median([res.setup for p in untraced for res in p if res.setup is not None])
        metrics["peak_rss_mb"] = max(res.rss_kb for p in untraced for res in p) / 1024.0
    else:
        metrics.update(("%s_s" % cmd, t) for cmd, t in command_s.items())
        metrics["fail_ratio"] = failed / len(results)
        metrics["trace_overhead_ratio"] = per_job(traced, lambda res: res.wall) / wall
        per_pass = [layers.summarize([res.spans for res in p if res.spans]) for p in traced]
        for name, _, _ in layers.METRICS:
            metrics[name] = median([m[name] for m in per_pass])
    info["pass_walls"] = [pass_sum(p, "wall") for p in untraced + traced]
    info["fail_ratio"] = failed / len(results)
    info["command_s"] = command_s
    return metrics, len(results), failed, info


def units():
    table = dict(END_TO_END + PER_COMMAND)
    table.update({"fail_ratio": "ratio", "trace_overhead_ratio": "ratio"})
    table.update({name: unit for name, unit, _ in layers.METRICS})
    return table


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(workdir):
    """Rewrite golden.json from one pass of every workload at the default seed."""
    golden = {}
    judge = Judge({})
    for workload in joblists.WORKLOADS:
        for res in run_pass(joblists.job_list(workload, DEFAULT_SEED), workdir, time.monotonic() + 600):
            if not judge(res):
                raise SystemExit("not recording, a job failed:\n" + "\n".join(judge.problems))
            golden[job_key(res.job)] = {
                "argv": res.job["argv"],
                "exit": res.code,
                "sha256": hashlib.sha256(res.stdout).hexdigest(),
            }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d jobs in %s" % (len(golden), GOLDEN))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=joblists.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args(argv)
    # end through the cleanup below, which also stops a running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "vflie", "cli.py")):
        sys.stderr.write("no vflie sources under %s: run from the root of a vflie checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)  # the specht oracle uses tensormod.act_e
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir)
    try:
        warm_up(workdir)
        if args.record:
            record(workdir)
            return 0
        return report(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def report(args, workdir):
    print("# machine: nproc=%d python=%s platform=%s git=%s" % (
        os.cpu_count(), platform.python_version(), platform.platform(), git_sha()))
    judge = Judge(load_golden())
    workloads = joblists.WORKLOADS if args.workload == "all" else (args.workload,)
    unit_of = units()
    all_metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        metrics, n, bad, info = measure(workload, args.seed, args.seconds, args.trace, workdir, judge)
        attempted += n
        failed += bad
        print("# %s seed=%d: %d jobs, %d untraced and %d traced passes, %d of %d runs failed" % (
            workload, args.seed, info["jobs"], info["untraced_passes"], info["traced_passes"], bad, n))
        print("#   pass wall times (s): %s%s" % (
            " ".join("%.3f" % t for t in info["pass_walls"]),
            " (the last untraced pass ran %d jobs)" % info["partial_jobs"] if info["partial_jobs"] else ""))
        shown = dict(metrics)
        if not args.trace:
            shown["fail_ratio"] = info["fail_ratio"]
            shown.update(("%s_s" % cmd, t) for cmd, t in info["command_s"].items() if t)
        for name, value in shown.items():
            print("#   %-34s %14.6f %s" % (name, value, unit_of[name]))
        prefix = workload + "." if args.workload == "all" else ""
        for name, value in metrics.items():
            all_metrics[prefix + name] = {"value": value, "unit": unit_of[name]}
    for problem in judge.problems:
        sys.stderr.write("FAIL %s\n" % problem)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": all_metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
