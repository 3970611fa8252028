"""The four benchmark workloads: job lists, how one job runs, output checks.

Each workload is a closed loop with one client: its jobs run one after
another from one driver process, never two at once.

- bundled: `python -m toricsym.cli analyze FILE` on the eight bundled fans,
  one fresh interpreter per fan.  Process start, import, parsing,
  validation and small automorphism searches dominate.
- ladder: the same command on futaki(2,2) and futaki(1,3), both of
  dimension 5, where the superlinear layers dominate: pairwise fan
  validation, automorphism groups of order 72 and 48, and for futaki(2,2)
  (Bc = 0) the barycenter rational function.  A pass takes about 30 s,
  one sample per run, so BENCHMARK.json leaves it out; run it by name for
  a per-layer profile at dimension 5.
- scan: quantized_barycenter in process on futaki(3,3) (dimension 7) at
  k = 1..3 and on futaki(1,2) at k = 30, one plan per polytope, about 16
  million lattice points per pass.  Isolates the lattice scan.
- rigidity: the criterion-4 batch in process, the first 20 random lattice
  polytopes (dimensions 2 to 4) of a pool seed: H<->V, volume, Ehrhart,
  counts, Bc_k, and the rational function when every Bc_k vanishes.  Many
  small plan builds, each followed by tiny scans: the opposite balance to
  `scan`.

The host's speed swings by tens of percent over a few seconds, so the
benchmarked workloads keep a pass to a few seconds and a run holds
several: futaki(3,3) at k = 4 (8M points, 5 s) and 180 of criterion 4's
200 polytopes are left out for that reason.

Every job is checked against committed exact references in
bench/references (see make_references.py): the analyze JSON byte for byte,
the Bc_k values, the Ehrhart coefficients.  The run's --seed orders the
jobs; for rigidity it also flips coordinate signs per polytope, which
leaves the work unchanged and maps every reference value exactly.
"""

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from tracer import clear_caches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = BENCH / "references"

BUNDLED = ("p2", "p1xp1", "dp1", "dp2", "dp3", "fano3fold_5_2", "weighted_112", "futaki_1_2")
LADDER = ((2, 2), (1, 3))
SCAN_JOBS = (("futaki_3_3", 1), ("futaki_3_3", 2), ("futaki_3_3", 3), ("futaki_1_2", 30))
K_MAX = 3  # analyze's default --k-max
DEFAULT_POOL_SEED = 20250801  # the seed of acceptance criterion 4
RIGIDITY_COUNT = 20


class OpTimeout(Exception):
    pass


class Outcome:
    """What one job produced: status is ok, error, timeout or mismatch."""

    def __init__(self, job, status, output=None, detail="", rss_kb=0):
        self.job = job
        self.status = status
        self.output = output
        self.detail = detail
        self.rss_kb = rss_kb
        self.seconds = 0.0
        self.cpu = 0.0


def rat(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv, out_path, limit):
    """Run argv from the checkout root with stdout to out_path.

    Returns (exit code or None on timeout, rusage of the child, start and
    end in monotonic ns).  The child is killed once `limit` seconds pass,
    and always reaped before this returns.
    """
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fired = []
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)

        def kill():
            fired.append(True)
            proc.kill()

        timer = threading.Timer(max(limit, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if fired else proc.returncode), usage, start, end


class time_limit:
    """Raise OpTimeout in the main thread once `seconds` pass."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        def alarm(signum, frame):
            raise OpTimeout()

        self.previous = signal.signal(signal.SIGALRM, alarm)
        signal.setitimer(signal.ITIMER_REAL, max(self.seconds, 1e-3))

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def ehrhart_points(coefficients, ks):
    """Lattice points in the dilations kP, k in ks, from Ehrhart coefficients."""
    total = Fraction(0)
    for k in ks:
        total += sum(Fraction(c) * k**d for d, c in enumerate(coefficients))
    return int(total)


# ---------------------------------------------------------------------------
# CLI workloads: one fresh interpreter per job


class CliWorkload:
    """`toricsym analyze FILE` per job, output compared byte for byte."""

    in_process = False
    ref_dir = None

    def __init__(self, seed):
        self.seed = seed
        self.jobs = []

    def setup(self):
        self.prepare()
        self.jobs = list(self.names())
        random.Random(self.seed).shuffle(self.jobs)
        self.references = {}
        self.points = {}
        for name in self.jobs:
            path = self.ref_dir / f"{name}.json"
            self.references[name] = path.read_bytes() if path.exists() else None
            if self.references[name] is not None:
                coeffs = json.loads(self.references[name])["ehrhart"]["coefficients"]
                self.points[name] = ehrhart_points(coeffs, range(1, K_MAX + 1))

    def argv(self, name, tracer_out=None, launch_ns=0):
        args = ["analyze", self.fan_path(name)]
        if tracer_out is None:
            return [sys.executable, "-m", "toricsym.cli", *args]
        return [sys.executable, str(BENCH / "trace_child.py"), str(launch_ns), str(tracer_out),
                *args]

    def run(self, name, limit, tracer=None):
        out = WORK / "out" / self.label / f"{name}.json"
        if tracer is None:
            code, usage, _, _ = spawn(self.argv(name), out, limit)
        else:
            trace_file = out.with_suffix(".trace")
            trace_file.unlink(missing_ok=True)
            launch = time.monotonic_ns()
            job = tracer.open("job", start_ns=launch)
            code, usage, _, end = spawn(self.argv(name, trace_file, launch), out, limit)
            if trace_file.exists():
                child = json.loads(trace_file.read_text())
                tracer.adopt(child["spans"], child["counts"])
                tracer.add_caches(child["caches"])
            tracer.close(job, end_ns=end)
        rss_kb = usage.ru_maxrss
        if code is None:
            return Outcome(name, "timeout", detail=f"killed after {limit:.0f}s", rss_kb=rss_kb)
        if code != 0:
            err = out.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            return Outcome(name, "error", detail=f"exit {code}: {err[-1] if err else ''}",
                           rss_kb=rss_kb)
        return Outcome(name, "ok", output=out.read_bytes(), rss_kb=rss_kb)

    def check(self, outcome):
        expected = self.references.get(outcome.job)
        if expected is None:
            return f"no reference for {outcome.job}"
        if outcome.output != expected:
            at = next((i for i, (a, b) in enumerate(zip(outcome.output, expected)) if a != b),
                      min(len(outcome.output), len(expected)))
            return f"analyze JSON differs from the reference at byte {at}"
        return None


class Bundled(CliWorkload):
    label = "bundled"
    ref_dir = REFS / "bundled"
    op_limit = 30.0

    def names(self):
        return BUNDLED

    def fan_path(self, name):
        return f"src/toricsym/data/{name}.fan"

    def prepare(self):
        """Start one interpreter that imports the CLI, so bytecode is compiled."""
        code, _, _, _ = spawn([sys.executable, "-m", "toricsym.cli", "--help"],
                              WORK / "setup" / "help.txt", self.op_limit)
        if code != 0:
            raise RuntimeError("toricsym.cli --help failed")


class Ladder(CliWorkload):
    label = "ladder"
    ref_dir = REFS / "ladder"
    op_limit = 90.0

    def names(self):
        return tuple(f"futaki_{a}_{b}" for a, b in LADDER)

    def fan_path(self, name):
        return f".bench_work/ladder/{name}.fan"

    def prepare(self):
        """Write the two dimension-5 fan files with `toricsym futaki`."""
        for a, b in LADDER:
            name = f"futaki_{a}_{b}"
            argv = [sys.executable, "-m", "toricsym.cli", "futaki", "--n1", str(a),
                    "--n2", str(b), "--out", self.fan_path(name)]
            (ROOT / self.fan_path(name)).parent.mkdir(parents=True, exist_ok=True)
            code, _, _, _ = spawn(argv, WORK / "setup" / f"{name}.txt", self.op_limit)
            if code != 0:
                raise RuntimeError(f"toricsym futaki {a} {b} failed")


# ---------------------------------------------------------------------------
# in-process workloads


def import_toricsym():
    import toricsym.families
    import toricsym.fan
    import toricsym.latticecount
    import toricsym.polytope

    return toricsym


class InProcessWorkload:
    """Jobs that call toricsym's functions in this interpreter."""

    in_process = True

    def run(self, job, limit, tracer=None):
        if tracer is not None:
            span = tracer.open("job")
        try:
            with time_limit(limit):
                return Outcome(job, "ok", output=self.compute(job))
        except OpTimeout:
            return Outcome(job, "timeout", detail=f"stopped after {limit:.0f}s")
        except Exception as exc:  # a failed job is recorded, and the run goes on
            return Outcome(job, "error", detail=f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.close(span)


class Scan(InProcessWorkload):
    """quantized_barycenter on two fixed polytopes at fixed k."""

    label = "scan"
    op_limit = 60.0

    def __init__(self, seed):
        import_toricsym()
        self.seed = seed
        self.reference = json.loads((REFS / "scan.json").read_text())

    def setup(self):
        """Build both polytopes from their rays with cold caches."""
        ts = import_toricsym()
        clear_caches()
        self.polytopes = {}
        for name in sorted({name for name, _ in SCAN_JOBS}):
            a, b = (int(x) for x in name.split("_")[1:])
            fan = ts.fan.Fan.from_rays(ts.families.futaki_rays(a, b))
            self.polytopes[name] = ts.fan.polytope_from_fan(fan)
        self.jobs = [f"{name}@k={k}" for name, k in SCAN_JOBS]
        random.Random(self.seed).shuffle(self.jobs)
        self.points = {job: self.reference[job]["points"] for job in self.jobs}

    def compute(self, job):
        name, k = job.split("@k=")
        bc = import_toricsym().latticecount.quantized_barycenter(self.polytopes[name], int(k))
        return [rat(x) for x in bc]

    def check(self, outcome):
        if outcome.output != self.reference[outcome.job]["bc"]:
            return f"Bc_k of {outcome.job} differs from the reference"
        return None


def _rank(rows):
    """Rank of an integer matrix, by exact elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def criterion4_vertex_sets(pool_seed, count):
    """Vertex sets of the criterion-4 random lattice polytopes.

    Dimensions 2, 3, 4 round robin, coordinates in [-4, 4]; every fifth set
    is centrally symmetrized so the vanishing branch is exercised (the
    symmetric 4-dimensional ones use [-2, 2]).  Sets that are not
    full-dimensional are redrawn.  Same draws as the acceptance test, so
    the default pool seed gives the same polytopes.
    """
    rng = random.Random(pool_seed)
    out = []
    while len(out) < count:
        n = 2 + len(out) % 3
        npts = n + 1 + rng.randrange(2)
        symmetric = len(out) % 5 == 4
        box = 2 if (symmetric and n == 4) else 4
        pts = {tuple(rng.randint(-box, box) for _ in range(n)) for _ in range(npts)}
        if symmetric:
            pts = {tuple(-x for x in p) for p in pts} | pts
        pts = sorted(pts)
        if _rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) < n:
            continue
        out.append(pts)
    return out


def criterion4_pipeline(vertices):
    """One polytope through the criterion-4 steps, in report.analyze's order."""
    ts = import_toricsym()
    lc, pt = ts.latticecount, ts.polytope
    p = pt.polytope_from_vertices(vertices)
    n = p.dim
    vol, bc = pt.volume_and_barycenter(p)
    ehrhart = lc.ehrhart_polynomial(p)
    counts = [lc.count_lattice_points(p, k) for k in (n + 1, n + 2)]
    bcs = [lc.quantized_barycenter(p, k) for k in range(1, n + 2)]
    zero = (Fraction(0),) * n
    out = {
        "n": n,
        "volume": vol,
        "barycenter": bc,
        "ehrhart": ehrhart.coefficients,
        "counts": counts,
        "bc_k": bcs,
        "zero_branch": all(b == zero for b in bcs),
        "rf_zero": None,
    }
    if out["zero_branch"]:
        out["rf_zero"] = lc.barycenter_rational_function(p).is_identically_zero()
    return out


def flip(vector, signs):
    return tuple(-x if s else x for x, s in zip(vector, signs))


class Rigidity(InProcessWorkload):
    """The criterion-4 pipeline on each polytope of the pool."""

    label = "rigidity"
    op_limit = 30.0

    def __init__(self, seed, pool_seed=DEFAULT_POOL_SEED, count=RIGIDITY_COUNT):
        import_toricsym()
        self.seed = seed
        self.pool_seed = pool_seed
        self.count = count
        self.reference = None
        if pool_seed == DEFAULT_POOL_SEED:
            self.reference = json.loads((REFS / "rigidity.json").read_text())
            if count > len(self.reference["polytopes"]):
                raise ValueError("the committed reference covers fewer polytopes")

    def setup(self):
        """Draw the pool, then flip coordinate signs per polytope by --seed."""
        rng = random.Random(self.seed)
        self.signs = {}
        self.vertices = {}
        for i, verts in enumerate(criterion4_vertex_sets(self.pool_seed, self.count)):
            signs = tuple(rng.random() < 0.5 for _ in verts[0])
            self.signs[i] = signs
            self.vertices[i] = [flip(v, signs) for v in verts]
        self.jobs = list(range(self.count))
        rng.shuffle(self.jobs)
        self.points = {}

    def compute(self, job):
        out = criterion4_pipeline(self.vertices[job])
        self.points[job] = ehrhart_points(out["ehrhart"], range(1, out["n"] + 3))
        return out

    def check(self, outcome):
        out, job = outcome.output, outcome.job
        n, e = out["n"], out["ehrhart"]
        value = lambda k: sum(c * k**d for d, c in enumerate(e))
        if e[0] != 1 or e[-1] != out["volume"]:
            return f"polytope {job}: Ehrhart a0 or a_n is wrong"
        if [value(n + 1), value(n + 2)] != out["counts"]:
            return f"polytope {job}: Ehrhart values differ from direct counts"
        for k, bc in enumerate(out["bc_k"], start=1):
            if any((x * k * value(k)).denominator != 1 for x in bc):
                return f"polytope {job}: Bc_{k} is not a lattice sum over E({k}) points"
        verts = set(self.vertices[job])
        if verts == {tuple(-x for x in v) for v in verts} and not out["zero_branch"]:
            return f"polytope {job}: centrally symmetric but some Bc_k != 0"
        if out["zero_branch"] and not (out["rf_zero"] and not any(out["barycenter"])):
            return f"polytope {job}: Bc_k vanish but the rational function or Bc does not"
        if self.reference is not None:
            ref = self.reference["polytopes"][job]
            signs = self.signs[job]
            if [list(flip(v, signs)) for v in self.vertices[job]] != ref["vertices"]:
                return f"polytope {job}: drawn vertices differ from the reference"
            if [rat(c) for c in e] != ref["ehrhart"]:
                return f"polytope {job}: Ehrhart coefficients differ from the reference"
            if [[rat(x) for x in flip(bc, signs)] for bc in out["bc_k"]] != ref["bc_k"]:
                return f"polytope {job}: Bc_k differ from the reference"
            if out["zero_branch"] != ref["zero_branch"]:
                return f"polytope {job}: zero branch differs from the reference"
        return None

    def check_pass(self, outcomes):
        """The zero-branch count over a whole pass, against the reference."""
        if self.reference is None or any(o.status != "ok" for o in outcomes):
            return None
        expected = sum(1 for p in self.reference["polytopes"][: self.count] if p["zero_branch"])
        got = sum(1 for o in outcomes if o.output["zero_branch"])
        if got != expected:
            return f"zero-branch count {got}, reference {expected}"
        return None


WORKLOADS = {"bundled": Bundled, "ladder": Ladder, "scan": Scan, "rigidity": Rigidity}
