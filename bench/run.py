"""toricsym benchmark: run one workload (or all four) and print its metrics.

    python3 bench/run.py --workload bundled --seed 1 --seconds 40 --trace 0

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:
set-up time, wall and CPU seconds of one pass over the workload's job list,
lattice points per wall second and peak resident memory.  Times are the
sum over the job list of each job's median over the passes of one run;
set-up is repeated before every pass and its median reported.  Every time
is scaled to a reference host speed, pass by pass: hostspeed.probe() is
sampled during each pass (at an even rate inside in-process jobs, before
every CLI job), and each time of the pass, and the set-up before it, is
multiplied by hostspeed.REFERENCE_S over the pass's probe level (wall
times by the probe's wall, CPU times by its CPU time).  The raw times are
kept in the record.  Every pass starts from cold caches: CLI jobs run in a
fresh interpreter each, and in-process passes clear the six lru_caches
first.

With --trace 1 the run alternates untraced and traced passes and prints the
per-layer metrics: self time of each public function (spans recorded by
tracer.py around the library's functions, from outside), work counters,
cache hits and misses, and the tracing overhead.

Every job's output is checked against the committed references; a job that
fails, exceeds its time limit or differs is counted in `failed`.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record (environment stamp, every
sample, every failure, and the spans of a traced run) is written under
.bench_work/.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

MEASURE_CAP_S = 120.0  # no pass starts after this many seconds of measuring
RUN_CAP_S = 150.0  # jobs still pending at this point are recorded as timeouts
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {"cli.startup_s": "s"}
    units.update({f"{name}_s": "s" for name, _, _ in tr.LAYERS})
    units.update({name: "count" for name in tr.COUNT_NAMES})
    for name, _ in tr.CACHED:
        units[f"cache.{name}.hits"] = "count"
        units[f"cache.{name}.misses"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return round(100 * (n - 10) / n), ordered[n - 11]


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Pass:
    outcomes: list
    wall: float
    rss_kb: int
    tracer: object
    probes: list  # (wall, cpu) of each hostspeed.probe() of the pass
    scale: tuple  # (wall, cpu) factors to the reference host speed
    setup: float = 0.0  # seconds of the set-up before the pass


def run_pass(workload, index, started, traced):
    """Run every job once, in the workload's order, and check the outputs.

    An untraced in-process pass is probed by a sampling timer inside the
    jobs; any other pass by a probe before each job (outside the job's
    span when traced).  Times exclude the probes.
    """
    tracer = tr.Tracer() if traced else None
    if workload.in_process:
        tr.clear_caches()
        if tracer:
            tracer.install()
    sampler = hostspeed.Sampler()
    sampled = workload.in_process and not traced
    outcomes = []
    t0 = time.perf_counter()
    try:
        with sampler if sampled else contextlib.nullcontext():
            for job in workload.jobs:
                if not sampled:
                    sampler.take()
                limit = min(workload.op_limit, RUN_CAP_S - (time.perf_counter() - started))
                if limit <= 0:
                    outcomes.append(wl.Outcome(job, "timeout", detail="run time cap reached"))
                    continue
                if tracer:
                    tracer.job = f"{index}:{job}"
                spent = sampler.spent
                cpu = cpu_seconds()
                t = time.perf_counter()
                outcome = workload.run(job, limit, tracer)
                outcome.seconds = time.perf_counter() - t - (sampler.spent[0] - spent[0])
                outcome.cpu = cpu_seconds() - cpu - (sampler.spent[1] - spent[1])
                outcomes.append(outcome)
    finally:
        wall = time.perf_counter() - t0 - sampler.spent[0]
        sampler.take()
        if tracer and workload.in_process:
            tracer.add_caches(tr.cache_counts())
            tracer.uninstall()
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(o.rss_kb for o in outcomes)
    for o in outcomes:
        if o.status == "ok":
            problem = workload.check(o)
            if problem:
                o.status, o.detail = "mismatch", problem
    return Pass(outcomes, wall, rss_kb, tracer, sampler.samples, sampler.scale())


def measure(workload, seconds, trace):
    """Set up and run passes for `seconds`.

    Set-up is repeated before every pass, so its samples, like the jobs',
    spread over the whole run.  A pass starts only if one more set-up and
    pass, at the median length so far, still ends within `seconds`, so a
    run takes `seconds` and not up to a pass more.  A traced run
    alternates untraced and traced passes, at least one each.
    """
    rounds = []  # seconds of each set-up plus pass
    started = time.perf_counter()
    plain, traced = [], []
    budget = min(seconds, MEASURE_CAP_S)
    while not plain or (trace and not traced) or (
        time.perf_counter() - started + statistics.median(rounds) <= budget
    ):
        t0 = time.perf_counter()
        workload.setup()
        setup = time.perf_counter() - t0
        use_trace = trace and len(traced) < len(plain)
        done = run_pass(workload, len(plain) + len(traced), started, use_trace)
        done.setup = setup
        (traced if use_trace else plain).append(done)
        rounds.append(time.perf_counter() - t0)
    return plain, traced


def job_medians(passes, attr, axis):
    """{job: median over the passes of that job's `attr`, scaled by its pass}."""
    samples = {}
    for p in passes:
        for o in p.outcomes:
            samples.setdefault(o.job, []).append(getattr(o, attr) * p.scale[axis])
    return {job: statistics.median(v) for job, v in samples.items()}


def end_to_end(workload, passes):
    """One pass over the job list, as the sum of each job's median.

    Each pass's times are first scaled by that pass's host speed, which
    takes out slow or fast stretches longer than a pass.  A job's median
    over the passes then damps the swings within a pass.
    """
    wall = sum(job_medians(passes, "seconds", 0).values())
    points = sum(workload.points.get(job, 0) for job in workload.jobs)
    return {
        "setup_s": statistics.median(p.setup * p.scale[0] for p in passes),
        "wall_s": wall,
        "cpu_s": sum(job_medians(passes, "cpu", 1).values()),
        "points_per_s": points / wall,
        "peak_rss_mb": statistics.median(p.rss_kb / 1024 for p in passes),
    }


def per_layer(plain, traced):
    """Median over the traced passes of each per-layer metric."""
    names = ["cli.startup"] + [name for name, _, _ in tr.LAYERS]
    rows = []
    for p in traced:
        spans = p.tracer.spans
        row = {f"{k}_s": v for k, v in tr.layer_seconds(spans, names).items()}
        for name in tr.COUNT_NAMES:
            row[name] = p.tracer.counts.get(name, 0)
        for name, _ in tr.CACHED:
            info = p.tracer.caches.get(name, {"hits": 0, "misses": 0})
            row[f"cache.{name}.hits"] = info["hits"]
            row[f"cache.{name}.misses"] = info["misses"]
        row["trace.unattributed_s"] = tr.layer_seconds(spans, ["job"])["job"]
        rows.append(row)
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in plain
    )
    return out


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def stamp():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "TORICSYM_THREADS": os.environ.get("TORICSYM_THREADS"),
    }


def run_workload(name, seed, seconds, trace, pool_seed):
    if name == "rigidity":
        workload = wl.Rigidity(seed, pool_seed=pool_seed)
    else:
        workload = wl.WORKLOADS[name](seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "loadavg_start": loadavg(), **stamp()}
    if name == "rigidity":
        record["pool_seed"] = pool_seed
    plain, traced = measure(workload, seconds, trace)
    record["loadavg_end"] = loadavg()

    passes = plain + traced
    outcomes = [o for p in passes for o in p.outcomes]
    failures = [(o.job, o.status, o.detail) for o in outcomes if o.status != "ok"]
    pass_problems = []
    if hasattr(workload, "check_pass"):
        pass_problems = [x for x in (workload.check_pass(p.outcomes) for p in passes) if x]
    if trace:
        units = per_layer_units()
        values = per_layer(plain, traced)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(workload, plain)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": not failures and not pass_problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    record.update(
        setup_samples=[p.setup for p in passes],
        wall_samples=[p.wall for p in plain],
        probe_samples=[p.probes for p in passes],
        host_scales=[p.scale for p in plain],
        traced_wall_samples=[p.wall for p in traced],
        failures=failures,
        pass_problems=pass_problems,
        result=result,
    )
    if traced:
        record["spans"] = [s for p in traced for s in p.tracer.spans]
    op_seconds = [o.seconds for p in plain for o in p.outcomes]
    wl.WORK.mkdir(exist_ok=True)
    out = wl.WORK / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, default=str))
    report(record, metrics, op_seconds, out)
    return result


def report(record, metrics, op_seconds, path):
    pool = f" pool_seed={record['pool_seed']}" if "pool_seed" in record else ""
    print(f"# workload={record['workload']} seed={record['seed']}{pool} "
          f"passes={len(record['wall_samples'])}+{len(record['traced_wall_samples'])} traced "
          f"python={record['python']} nproc={record['nproc']} commit={record['commit']} "
          f"TORICSYM_THREADS={record['TORICSYM_THREADS']} "
          f"loadavg={record['loadavg_start']}->{record['loadavg_end']}")
    passes = len(record["wall_samples"])
    wall_scale, cpu_scale = (statistics.median(s[i] for s in record["host_scales"])
                             for i in (0, 1))
    notes = {
        "setup_s": f"median of {passes} set-ups, host x{wall_scale:.3f} (pass median)",
        "wall_s": f"sum of per-job medians over {passes} passes, host x{wall_scale:.3f}",
        "cpu_s": f"sum of per-job medians over {passes} passes, host x{cpu_scale:.3f}",
        "peak_rss_mb": f"median of {passes} passes",
    }
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']:6s} {notes.get(name, '')}")
    tail = tail_percentile(op_seconds)
    tail_text = f", p{tail[0]} {tail[1]:.4f} s" if tail else ""
    print(f"# seconds per job: median {statistics.median(op_seconds):.4f} of "
          f"{len(op_seconds)}{tail_text}")
    res = record["result"]
    print(f"# error_rate {res['failed'] / res['attempted']:.4f} "
          f"({res['failed']} of {res['attempted']} jobs)")
    for job, status, detail in record["failures"][:10]:
        print(f"# FAILED {job}: {status} {detail}")
    for problem in record["pass_problems"]:
        print(f"# FAILED pass check: {problem}")
    print(f"# details in {path.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1,
                    help="orders the jobs; for rigidity also flips coordinate signs")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time; at least one pass always runs")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pool-seed", type=int, default=wl.DEFAULT_POOL_SEED,
                    help="seed of the rigidity polytopes; only the default has "
                         "committed references, others are checked by identities")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toricsym" / "__init__.py").is_file():
        print("toricsym sources not found under src/; run from a checkout", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.pool_seed)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
