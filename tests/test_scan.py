"""The lattice scan against the per-leaf oracle, and each dilation scanned once."""

import random
from collections import Counter

import helpers_scan
from helpers_reflexive import random_unimodular
from test_acceptance import Budget, _random_lattice_polytopes
from test_latticecount import IMBERT_SIMPLEX
from toricsym import latticecount
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.families import generate_futaki
from toricsym.fan import polytope_from_fan
from toricsym.latticecount import (
    EnumerationPlan,
    PlanRow,
    build_plan,
    plan_count_and_sum,
    plan_for_polytope,
    plan_points,
    rigidity_verdict,
)
from toricsym.linalg import mat_vec
from toricsym.polytope import polytope_from_vertices
from toricsym.report import analyze


def bundled_product(a, b):
    """The product of two bundled anticanonical polytopes."""
    p, q = (polytope_from_fan(load_bundled(name)) for name in (a, b))
    return polytope_from_vertices([u + v for u in p.vertices for v in q.vertices])


def test_scan_matches_per_leaf_oracle():
    # Each polytope with the largest dilation compared; None means n+2.
    cases = [(polytope_from_fan(load_bundled(name)), None) for name in BUNDLED]
    cases += [(p, None) for p in _random_lattice_polytopes(random.Random(20250801), 60)]
    cases.append((polytope_from_vertices(IMBERT_SIMPLEX), None))  # beyond Fourier-Motzkin
    cases += [
        (polytope_from_vertices([(a,), (b,)]), None) for a, b in ((0, 1), (-1, 1), (-5, -2), (2, 9))
    ]
    # Bundles, whose levels 2.. memoize, then a product (empty memo key at
    # level 2) and a unimodular image of futaki(2,2), which memoizes nothing.
    f22 = polytope_from_fan(generate_futaki(2, 2))
    cases += [(f22, 5), (polytope_from_fan(generate_futaki(2, 3)), 4)]
    cases.append((polytope_from_fan(generate_futaki(3, 3)), 3))
    cases.append((bundled_product("dp1", "dp2"), None))
    m = random_unimodular(random.Random(1), size=8, n=5)
    cases.append((polytope_from_vertices([mat_vec(m, v) for v in f22.vertices]), 5))
    for p, k_max in cases:
        plan = plan_for_polytope(p)
        for k in range((p.dim + 2 if k_max is None else k_max) + 1):
            assert plan_count_and_sum(plan, k) == helpers_scan.plan_count_and_sum(plan, k)


def memoized_levels(p):
    return {j for j, rows in enumerate(plan_for_polytope(p).memo_keys) if rows is not None}


def test_memoized_levels():
    # futaki(3,3) is a bundle: at levels 2..5 the prefix forms of the rows
    # below have rank < j.  The bundled fans and criterion-4 polytopes have
    # full rank everywhere, so their scans run the plain loop.
    assert memoized_levels(polytope_from_fan(generate_futaki(3, 3))) == {2, 3, 4, 5}
    for name in BUNDLED:
        assert memoized_levels(polytope_from_fan(load_bundled(name))) == set(), name
    for p in _random_lattice_polytopes(random.Random(20250801), 20):
        assert memoized_levels(p) == set()
    # dp2's rows never see dp1's coordinates: level 2 is scanned once.
    assert build_plan(bundled_product("dp1", "dp2")).memo_keys == (None, None, (), None)


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
    # futaki(3,3) is 7-dimensional with barycenter 0, so Bc_3 = Bc_9 = 0 too.
    with Budget("futaki(3,3) at k = 3 and 9, 1,362,705 and 1,491,498,613 points", 2.0):
        plan = plan_for_polytope(polytope_from_fan(generate_futaki(3, 3)))
        scans = [plan_count_and_sum(plan, k) for k in (3, 9)]
    assert scans == [(1_362_705, (0,) * 7), (1_491_498_613, (0,) * 7)]
