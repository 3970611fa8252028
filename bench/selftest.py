"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the library's own test run; they
spawn benchmark runs and take about half a minute.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run as rn  # noqa: E402  (also puts src/ on sys.path)
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench_result(*args):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_bundled():
    result = bench_result("--workload", "bundled", "--seed", "7", "--seconds", "1",
                          "--trace", "1")
    record = json.loads((wl.WORK / "bundled-seed7-trace1.json").read_text())
    return result, record


def test_checker_flags_a_perturbed_bc_k():
    scan = wl.Scan(seed=0)
    job = "futaki_3_3@k=2"
    good = list(scan.reference[job]["bc"])
    assert scan.check(wl.Outcome(job, "ok", output=good)) is None
    bad = [str(Fraction(good[0]) + Fraction(1, 10**9))] + good[1:]
    assert scan.check(wl.Outcome(job, "ok", output=bad))

    rigidity = wl.Rigidity(seed=3, count=5)
    rigidity.setup()
    out = rigidity.compute(4)  # a centrally symmetric polytope: every Bc_k is 0
    assert rigidity.check(wl.Outcome(4, "ok", output=out)) is None
    out["bc_k"][-1] = (Fraction(1, 3),) + out["bc_k"][-1][1:]
    assert rigidity.check(wl.Outcome(4, "ok", output=out))


def test_checker_flags_a_perturbed_json_byte():
    bundled = wl.Bundled(seed=0)
    bundled.setup()
    good = bundled.references["p2"]
    assert bundled.check(wl.Outcome("p2", "ok", output=good)) is None
    at = len(good) // 2
    bad = good[:at] + bytes([good[at] ^ 1]) + good[at + 1:]
    assert "byte" in bundled.check(wl.Outcome("p2", "ok", output=bad))


def test_printed_metric_names_are_those_of_benchmark_json(traced_bundled):
    result, _ = traced_bundled
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    plain = bench_result("--workload", "bundled", "--seed", "7", "--seconds", "1")
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        got = (plain if spec in SPEC["end_to_end"] else result)["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]


def check_spans(spans):
    own = tr.self_times(spans)
    assert all(t >= 0 for t in own)
    jobs = [i for i, s in enumerate(spans) if s[0] == "job"]
    assert jobs
    for i in jobs:
        name, start, end, _, job = spans[i]
        inside = [t for s, t in zip(spans, own) if s[4] == job]
        assert sum(inside) == end - start


def test_traced_self_times_are_nonnegative_and_sum_to_the_job_span(traced_bundled):
    _, record = traced_bundled
    check_spans(record["spans"])
    names = {s[0] for s in record["spans"]}
    assert {"cli.startup", "fileio.parse_fan_file", "report.analyze"} <= names

    rigidity = wl.Rigidity(seed=2, count=5)
    rigidity.setup()
    done = rn.run_pass(rigidity, 0, time.perf_counter(), traced=True)
    assert all(o.status == "ok" for o in done.outcomes)
    check_spans(done.tracer.spans)
    assert done.tracer.counts["latticecount.scan_points"] > 0


def test_a_job_over_its_time_limit_is_recorded_as_a_timeout(tmp_path):
    code, _, start, end = wl.spawn(
        [sys.executable, "-c", "import time; time.sleep(30)"], tmp_path / "out", 0.3
    )
    assert code is None and (end - start) / 1e9 < 10

    class Sleeper(wl.InProcessWorkload):
        op_limit = 0.2
        jobs = ["nap"]
        points = {}

        def compute(self, job):
            time.sleep(30)

        def check(self, outcome):
            return None

    done = rn.run_pass(Sleeper(), 0, time.perf_counter(), traced=False)
    assert [o.status for o in done.outcomes] == ["timeout"]


def test_times_are_scaled_by_their_pass_probe_level():
    class Fixed(wl.InProcessWorkload):
        jobs = ["a", "b"]
        points = {"a": 6, "b": 0}

    def done(probe_wall, seconds=1.0):
        outcomes = [wl.Outcome(j, "ok") for j in Fixed.jobs]
        for o in outcomes:
            o.seconds, o.cpu = seconds, 0.5
        sampler = hostspeed.Sampler()
        sampler.samples = [(probe_wall, hostspeed.REFERENCE_S)] * 3
        return rn.Pass(outcomes, 2.0, 1024, None, sampler.samples, sampler.scale(), 0.1)

    at_reference = rn.end_to_end(Fixed(), [done(hostspeed.REFERENCE_S)])
    assert at_reference["wall_s"] == pytest.approx(2.0)
    assert at_reference["cpu_s"] == pytest.approx(1.0)
    slow = rn.end_to_end(Fixed(), [done(2 * hostspeed.REFERENCE_S)])
    assert slow["wall_s"] == pytest.approx(1.0)
    assert slow["setup_s"] == pytest.approx(0.05)
    assert slow["points_per_s"] == pytest.approx(6.0)
    assert slow["cpu_s"] == pytest.approx(1.0)
    # a pass run at half speed takes twice as long and counts the same
    mixed = rn.end_to_end(Fixed(), [done(hostspeed.REFERENCE_S),
                                    done(2 * hostspeed.REFERENCE_S, seconds=2.0)] * 2)
    assert mixed["wall_s"] == pytest.approx(2.0)


def test_one_preempted_probe_barely_moves_the_level():
    assert hostspeed.mean_level([1.0] * 9 + [50.0]) == pytest.approx(1.1)
    assert hostspeed.mean_level([1.0, 2.0] * 5) == pytest.approx(1.5)


def test_sampled_probes_are_taken_out_of_the_job_times():
    class Busy(wl.InProcessWorkload):
        op_limit = 10.0
        jobs = ["spin"]
        points = {}

        def compute(self, job):
            end = time.process_time() + 0.5
            while time.process_time() < end:
                pass

        def check(self, outcome):
            return None

    done = rn.run_pass(Busy(), 0, time.perf_counter(), traced=False)
    assert len(done.probes) >= 3
    assert done.outcomes[0].cpu == pytest.approx(0.5, abs=0.02)
