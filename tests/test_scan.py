"""The lattice scan against the per-leaf oracle, and each dilation scanned once."""

import random
from collections import Counter

import helpers_scan
from test_acceptance import Budget, _random_lattice_polytopes
from test_latticecount import IMBERT_SIMPLEX
from toricsym import latticecount
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.families import generate_futaki
from toricsym.fan import polytope_from_fan
from toricsym.latticecount import (
    EnumerationPlan,
    PlanRow,
    plan_count_and_sum,
    plan_for_polytope,
    plan_points,
    rigidity_verdict,
)
from toricsym.polytope import polytope_from_vertices
from toricsym.report import analyze


def test_scan_matches_per_leaf_oracle():
    # Each polytope with the largest dilation compared; None means n+2.
    cases = [(polytope_from_fan(load_bundled(name)), None) for name in BUNDLED]
    cases += [(p, None) for p in _random_lattice_polytopes(random.Random(20250801), 60)]
    cases.append((polytope_from_vertices(IMBERT_SIMPLEX), None))  # beyond Fourier-Motzkin
    cases += [
        (polytope_from_vertices([(a,), (b,)]), None) for a, b in ((0, 1), (-1, 1), (-5, -2), (2, 9))
    ]
    cases.append((polytope_from_fan(generate_futaki(2, 2)), 3))
    cases.append((polytope_from_fan(generate_futaki(3, 3)), 2))
    for p, k_max in cases:
        plan = plan_for_polytope(p)
        for k in range((p.dim + 2 if k_max is None else k_max) + 1):
            assert plan_count_and_sum(plan, k) == helpers_scan.plan_count_and_sum(plan, k)


def test_scan_skips_prefixes_where_an_upper_level_is_loose():
    # 0 <= x0 <= 2 and 0 <= x1 <= -2*x0.  Level 0 admits x0 = 1, 2, where
    # the last level's interval has width -1 and -3; only (0, 0) is a point.
    plan = EnumerationPlan(
        dim=2,
        levels=(
            (PlanRow(coeffs=(1,), c0=2, ck=0), PlanRow(coeffs=(-1,), c0=0, ck=0)),
            (PlanRow(coeffs=(2, 1), c0=0, ck=0), PlanRow(coeffs=(0, -1), c0=0, ck=0)),
        ),
        constants=(),
    )
    assert list(plan_points(plan, 1)) == [(0, 0)]
    assert plan_count_and_sum(plan, 1) == (1, (0, 0))
    assert helpers_scan.plan_count_and_sum(plan, 1) == (1, (0, 0))


def scanned_dilations(monkeypatch):
    """Counter of k over the real scans made from here on, with cold plans."""
    plan_for_polytope.cache_clear()
    calls = Counter()
    scan = latticecount.plan_count_and_sum

    def counted(plan, k):
        calls[k] += 1
        return scan(plan, k)

    monkeypatch.setattr(latticecount, "plan_count_and_sum", counted)
    return calls


def test_rigidity_verdict_scans_each_dilation_once(monkeypatch):
    p = _random_lattice_polytopes(random.Random(20250801), 5)[4]  # centrally symmetric
    n = p.dim
    calls = scanned_dilations(monkeypatch)
    verdict = rigidity_verdict(p, range(1, n + 2))
    assert verdict.identically_zero
    # k = 1..n+1 for the samples and n+2 for the check of the closed form.
    assert calls == Counter(range(1, n + 3))


def test_analyze_scans_each_dilation_once(monkeypatch):
    calls = scanned_dilations(monkeypatch)
    analyze(load_bundled("futaki_1_2"), name="futaki_1_2")
    # A 4-fold with Bc_1 != 0: k = 1..4 for the Ehrhart samples (k_max = 3
    # and the chain share 1..3); the chain stops at its first witness.
    assert calls == Counter(range(1, 5))


def test_seven_dimensional_scan_at_scale():
    # futaki(3,3) is 7-dimensional with barycenter 0, so Bc_3 = 0 too.
    with Budget("futaki(3,3) at k = 3, 1,362,705 points", 2.0):
        count, sums = plan_count_and_sum(
            plan_for_polytope(polytope_from_fan(generate_futaki(3, 3))), 3
        )
    assert count == 1_362_705
    assert sums == (0,) * 7
