"""Seeded job lists for the three benchmark workloads.

A job is one ``vflie`` CLI invocation plus what the benchmark needs to judge
its output: the exit codes that count as success and the independent oracle
to run on stdout.  The same (workload, seed) always yields the same list.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# A workload is a list of parts, each a job-list builder with its own seeded
# stream, named after the part.  Homology windows and presentations share one
# workload: with two workloads a run can last a minute within the benchmark's
# time limit, and the longer runs average out the drift of a shared machine.
WORKLOADS = ("certify", "homology_presentation")


def _rat(rng):
    """A small rational: numerator -3..3, denominator 1..3."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _fmt(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _vec(values):
    return ",".join(_fmt(Fraction(v)) for v in values)


def _params(rng, r):
    """lam, mu as flag=value arguments.  A leading minus sign would make
    argparse read the value as a flag, so the value is always joined to its
    flag with '='."""
    if rng is None:
        lam = mu = (0,) * r
    else:
        lam = tuple(_rat(rng) for _ in range(r))
        mu = tuple(_rat(rng) for _ in range(r))
    return ["--r", str(r), "--lam=" + _vec(lam), "--mu=" + _vec(mu)]


def _job(cmd, argv, oracle, exits=(0,), files=None, **info):
    return {
        "cmd": cmd,
        "argv": [cmd] + argv,
        "oracle": oracle,
        "exits": list(exits),
        "files": files or {},
        "info": info,
    }


def _certify(rng):
    jobs = [
        _job("shift", _params(None, 3) + ["--cutoff", "9"], "slices", r=3),
        _job("shift", _params(None, 4) + ["--cutoff", "8"], "slices", r=4),
        _job("shift", _params(rng, 4) + ["--cutoff", "8"], "slices", r=4),
        _job("shift", _params(rng, 5) + ["--cutoff", "6"], "slices", r=5),
        _job("span", _params(None, 2) + ["--cutoff", "14"], "slices", r=2),
        _job("span", _params(rng, 3) + ["--cutoff", "10"], "slices", r=3),
        _job("span", _params(rng, 3) + ["--cutoff", "10"], "slices", r=3),
        _job("span", _params(None, 2) + ["--d", "2", "--cutoff", "12"], "slices", r=2),
    ]
    for r in (3, 4):
        jobs.append(_job("phi", _params(None, r), "phi", r=r))
        jobs.append(_job("phi", _params(rng, r), "phi", r=r))
        jobs.append(_job("phi", _params(rng, r), "phi", r=r))
    return jobs


def _homology_job(algebra, p_max, w_max, oracle="window", lam=None, mu=None):
    argv = ["--algebra", algebra, "--p-max", str(p_max), "--w-max", str(w_max)]
    if lam is not None:
        argv += ["--lam=" + _vec(lam), "--mu=" + _vec(mu)]
    return _job("homology", argv, oracle, algebra=algebra, p_max=p_max, w_max=w_max)


def _homology(rng):
    return [
        _homology_job("L1:2", 3, 8),
        _homology_job("L1:1", 4, 40, oracle="goncharova"),
        _homology_job("L2:1", 4, 40),
        _homology_job("L1:1", 3, 14, lam=[_rat(rng)], mu=[_rat(rng)]),
        _homology_job("Lsum:2", 3, 10, lam=[_rat(rng), _rat(rng)], mu=[_rat(rng), _rat(rng)]),
        _homology_job("W:1", 3, 10),
    ]


# (variables, cutoff, generator supports): each generator is a list of
# exponent vectors; a homogeneous part with two or more monomials makes the
# closure depend on the seeded coefficients.  The supports are fixed so that
# every seed asks for the same kind of closure; the (3, 12) case ends in an
# inconclusive series fit (exit 2).
SPECHT_SHAPES = (
    (2, 16, (((3, 1), (1, 3)), ((2, 1),))),
    (3, 14, (((1, 1, 1),), ((2, 1, 0), (0, 1, 2)))),
    (3, 12, (((1, 1, 0), (0, 1, 1)), ((2, 1, 1), (1, 1, 2)))),
)


def _nonzero_rat(rng):
    while True:
        q = _rat(rng)
        if q:
            return q


def _generator_file(rng, supports):
    gens = [
        {",".join(map(str, expo)): _fmt(_nonzero_rat(rng)) for expo in support}
        for support in supports
    ]
    return json.dumps(gens, sort_keys=True) + "\n"


def _presentation(rng):
    jobs = [
        # hilbert inputs are fixed, not seeded: see NOTES.md.
        _job("hilbert", _params(None, 2) + ["--cutoff", "22"], "slices", r=2),
        _job("hilbert", ["--r", "2", "--lam=1,1", "--mu=0,0", "--cutoff", "16"], "slices", r=2),
        _job("hilbert", _params(None, 1) + ["--cutoff", "30"], "slices", r=1),
    ]
    for k, (n, cutoff, supports) in enumerate(SPECHT_SHAPES):
        name = "gens%d.json" % k
        jobs.append(
            _job(
                "specht",
                ["--generators", name, "--cutoff", str(cutoff)],
                "specht",
                exits=(0, 2),
                files={name: _generator_file(rng, supports)},
                n=n,
                cutoff=cutoff,
            )
        )
    return jobs


# One minimal, unseeded job of each subcommand.  A workload appends those it
# does not otherwise run, so that every per-subcommand and per-layer time is
# measured, never a structural zero, on every workload.  Each takes about
# 0.1 s, almost all of it interpreter start.
PROBES = (
    _job("shift", _params(None, 1) + ["--cutoff", "3"], "slices", r=1),
    _job("span", _params(None, 1) + ["--cutoff", "3"], "slices", r=1),
    _job("phi", _params(None, 2), "phi", r=2),
    _homology_job("L1:1", 2, 7, oracle="goncharova"),
    _job("hilbert", _params(None, 1) + ["--cutoff", "4"], "slices", r=1),
    _job("specht", ["--generators", "probe.json", "--cutoff", "6"], "specht", exits=(0, 2),
         files={"probe.json": '[{"1,1": "1"}]\n'}, n=2, cutoff=6),
)


def job_list(workload: str, seed: int):
    """The workload's jobs for this seed, each with a stable id."""
    parts = {
        "certify": (("certify", _certify),),
        "homology_presentation": (("homology", _homology), ("presentation", _presentation)),
    }
    jobs = []
    for part, build in parts[workload]:
        jobs += build(random.Random("%s:%d" % (part, seed)))
    present = {job["cmd"] for job in jobs}
    jobs += [dict(probe) for probe in PROBES if probe["cmd"] not in present]
    for i, job in enumerate(jobs):
        job["id"] = "%s.%02d.%s" % (workload, i, job["cmd"])
    return jobs
