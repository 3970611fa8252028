"""The lattice scan against the per-leaf oracle, and each dilation scanned once."""

import random
from collections import Counter
from fractions import Fraction
from itertools import count, permutations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers_scan
from helpers_groups import v_n_rays
from helpers_reflexive import random_unimodular, reflexive_polygon_classes
from test_acceptance import Budget, _random_lattice_polytopes
from test_latticecount import IMBERT_SIMPLEX
from toricsym import latticecount
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import InvariantViolation, ValidationError
from toricsym.families import generate_futaki
from toricsym.fan import Fan, polytope_from_fan
from toricsym.latticecount import (
    EnumerationPlan,
    PlanRow,
    barycenter_rational_function,
    build_plan,
    count_lattice_points,
    ehrhart_polynomial,
    enumerate_lattice_points,
    floor_sums,
    plan_count_and_sum,
    plan_for_polytope,
    plan_points,
    quantized_barycenter,
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
    # Bundles, whose levels 2.. memoize, then products (an empty memo key
    # at level 2 of dp1 x dp2, a two-row key at level 3 of p2 x
    # fano3fold_5_2) and a unimodular image of futaki(2,2), which memoizes
    # nothing.
    f22 = polytope_from_fan(generate_futaki(2, 2))
    cases += [(f22, 5), (polytope_from_fan(generate_futaki(2, 3)), 4)]
    cases.append((polytope_from_fan(generate_futaki(3, 3)), 3))
    cases.append((bundled_product("dp1", "dp2"), None))
    cases.append((bundled_product("p2", "fano3fold_5_2"), None))
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
    # below have rank < j.  futaki(1,2), scanned with its base coordinate
    # x_0 last, memoizes level 2.  The other bundled fans and the
    # criterion-4 polytopes have full rank everywhere, so their scans run
    # the plain loop.
    assert memoized_levels(polytope_from_fan(generate_futaki(3, 3))) == {2, 3, 4, 5}
    for name in BUNDLED:
        expected = {2} if name == "futaki_1_2" else set()
        assert memoized_levels(polytope_from_fan(load_bundled(name))) == expected, name
    for p in _random_lattice_polytopes(random.Random(20250801), 20):
        assert memoized_levels(p) == set()
    # dp2's rows never see dp1's coordinates: level 2 is scanned once.
    assert build_plan(bundled_product("dp1", "dp2")).memo_keys == (None, None, (), None)
    # p2 x fano3fold_5_2 keys level 2 by one row and level 3 by two, the
    # one state of the tests that is a tuple of residuals.
    p2_f52 = bundled_product("p2", "fano3fold_5_2")
    assert memoized_levels(p2_f52) == {2, 3}
    assert [len(plan_for_polytope(p2_f52).memo_keys[j]) for j in (2, 3)] == [1, 2]


def test_memo_keys_match_the_elimination_per_level():
    # The first basis found row by row, stopping at rank j, is the one
    # that one `independent_rows` per level finds.
    polytopes = [polytope_from_fan(load_bundled(name)) for name in BUNDLED]
    polytopes += _random_lattice_polytopes(random.Random(20250801), 60)
    polytopes += [
        polytope_from_fan(generate_futaki(a, b)) for a in (1, 2, 3) for b in (1, 2, 3, 4)
    ]
    polytopes.append(polytope_from_fan(generate_futaki(1, 6)))
    polytopes += [polytope_from_fan(Fan.from_rays(v_n_rays(n))) for n in (4, 6, 8)]
    polytopes += [bundled_product(a, b) for a, b in (("dp1", "dp2"), ("p2", "fano3fold_5_2"))]
    polytopes.append(polytope_from_vertices(list(product((0, 1), repeat=4))))
    memoized = 0
    for p in polytopes:
        plan = build_plan(p)
        assert plan.memo_keys == helpers_scan.memo_keys(plan)
        memoized += any(rows is not None for rows in plan.memo_keys)
    assert memoized >= 18


def test_memoized_scan_matches_the_plain_loop():
    # At these k most lookups hit, and the residuals below a memoized level
    # move only on a miss, by however many steps of hits came before it:
    # the scan must equal that of the same plan with its memo keys
    # stripped, whose loops move the residuals at every step.  The
    # per-leaf oracle does not reach these dilations.
    cases = [
        (polytope_from_fan(Fan.from_rays(v_n_rays(6))), 10),
        (polytope_from_fan(generate_futaki(3, 3)), 6),
        (bundled_product("p2", "fano3fold_5_2"), 6),
    ]
    for p, k in cases:
        plan = build_plan(p)
        plain = helpers_scan.unmemoized(plan)
        assert any(rows is not None for rows in plan.memo_keys)
        assert plain == plan and not any(rows is not None for rows in plain.memo_keys)
        assert plan_count_and_sum(plan, k) == plan_count_and_sum(plain, k)


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


@given(
    st.integers(-60, 60), st.integers(-500, 500), st.integers(1, 40), st.integers(0, 40)
)
@example(-7, -3, 1, 0)
@example(-7, -3, 1, 1)
@example(-5, 12, 3, 1)
@example(4, -9, 1, 25)
def test_floor_sums_match_brute_force(p, q, m, n):
    f = [(p * t + q) // m for t in range(n)]
    assert floor_sums(p, q, m, n) == (
        sum(f), sum(t * v for t, v in enumerate(f)), sum(v * v for v in f)
    )


def loose_plan(*last):
    """0 <= x0 <= 2k, then the last-level rows (coeffs, c0, ck): level 0
    admits values of x0 over which the last level's real fibre is empty."""
    return EnumerationPlan(
        dim=2,
        levels=(
            (PlanRow(coeffs=(1,), c0=0, ck=2), PlanRow(coeffs=(-1,), c0=0, ck=0)),
            tuple(PlanRow(coeffs=a, c0=c0, ck=ck) for a, c0, ck in last),
        ),
    )


LOOSE_PLANS = (
    loose_plan(((2, 1), 0, 0), ((0, -1), 0, 0)),  # x1 <= -2*x0: only (0, 0)
    loose_plan(((2, 1), 0, 1), ((0, -1), 0, 0)),  # x1 <= k - 2*x0: x0 <= k/2
    loose_plan(((-2, 1), 0, -1), ((0, -1), 0, 0)),  # x1 <= 2*x0 - k: x0 >= k/2
    loose_plan(((-1, 1), -2, 0), ((1, -1), 0, 0)),  # x0 <= x1 <= x0 - 2: empty
)


@pytest.mark.parametrize("k", [1, 20])
@pytest.mark.parametrize(
    "last",
    [
        (((0, 1), 0, 1),),  # x1 <= k: no lower row
        (((0, -1), 0, 0),),  # -x1 <= 0: no upper row
        (((0, 1), 0, 1), ((-1,), 0, 0)),  # a level-1 row with one coefficient
    ],
)
def test_plan_without_bounded_levels_is_rejected(last, k):
    # A scan of such a plan fails inside its loops; the plan is refused
    # when made, before any k is asked for.
    with pytest.raises(ValidationError):
        plan_count_and_sum(loose_plan(*last), k)


@pytest.mark.parametrize("order", [(0, 0), (1,), (0, 2), (1, 0, 2)])
def test_plan_order_that_is_not_a_permutation_is_rejected(order):
    with pytest.raises(ValidationError):
        EnumerationPlan(dim=2, levels=LOOSE_PLANS[0].levels, order=order)


def closed_intervals(monkeypatch):
    """A list that grows by one for each interval closed by floor sums."""
    closed = []
    close = latticecount._close_last_two

    def counted(upper, lower, width):
        closed.append(width)
        return close(upper, lower, width)

    monkeypatch.setattr(latticecount, "_close_last_two", counted)
    return closed


def test_closed_intervals_match_per_leaf_oracle(monkeypatch):
    # The first unimodular image of futaki(1,2) whose last level divides
    # by more than 1, so that the floor sums see a divisor m > 1.
    f12 = polytope_from_fan(generate_futaki(1, 2))
    for seed in count():
        image = polytope_from_vertices(
            [mat_vec(random_unimodular(random.Random(seed), size=6, n=4), v) for v in f12.vertices]
        )
        image_plan = plan_for_polytope(image)
        if {abs(row.coeffs[-1]) for row in image_plan.levels[-1]} - {1}:
            break
    # x0 runs to 2k > CLOSE_FROM, and the clip cuts off where the fibre is empty.
    cases = [(plan_for_polytope(f12), range(8, 13)), (image_plan, (7, 9))]
    cases += [(plan, (9, 30)) for plan in LOOSE_PLANS]
    closed = closed_intervals(monkeypatch)
    for plan, ks in cases:
        for k in ks:
            del closed[:]
            assert plan_count_and_sum(plan, k) == helpers_scan.plan_count_and_sum(plan, k)
            assert closed, (plan.levels, k)
    assert plan_count_and_sum(LOOSE_PLANS[0], 30) == (1, (0, 0))
    assert plan_count_and_sum(LOOSE_PLANS[3], 30) == (0, (0, 0))
    # Criterion-4 polytopes at k = 10: 11 of these 12 close intervals, 1,529
    # of them with CLOSE_FROM = 16.
    del closed[:]
    for p in _random_lattice_polytopes(random.Random(20250801), 12):
        plan = plan_for_polytope(p)
        assert plan_count_and_sum(plan, 10) == helpers_scan.plan_count_and_sum(plan, 10)
    assert len(closed) > 1000


def lowered(plan):
    """The plan with every row's right-hand side lowered by 1."""
    return EnumerationPlan(
        dim=plan.dim,
        levels=tuple(
            tuple(PlanRow(coeffs=row.coeffs, c0=row.c0 - 1, ck=row.ck) for row in level)
            for level in plan.levels
        ),
        order=plan.order,
    )


# x0 <= 2 + k, x0 >= -1 - k; x1 - x0 <= 3 + k, x1 >= 1 - 2k;
# x0 + x1 + 2*x2 <= 5 + 3k, x1 + 3*x2 >= -4 - 2k.
OFFSET_PLAN = EnumerationPlan(
    dim=3,
    levels=(
        (PlanRow(coeffs=(1,), c0=2, ck=1), PlanRow(coeffs=(-1,), c0=1, ck=1)),
        (PlanRow(coeffs=(-1, 1), c0=3, ck=1), PlanRow(coeffs=(0, -1), c0=-1, ck=2)),
        (PlanRow(coeffs=(1, 1, 2), c0=5, ck=3), PlanRow(coeffs=(0, -1, -3), c0=4, ck=2)),
    ),
)


def box_scan(plan, k, interior, width):
    """(#, sums) of the integer points in [-width, width]^n that satisfy every
    row of the plan, strictly for the interior."""
    shift = 1 if interior else 0
    rows = [row for level in plan.levels for row in level]
    points = [
        x
        for x in product(range(-width, width + 1), repeat=plan.dim)
        if all(
            sum(a * xi for a, xi in zip(row.coeffs, x)) <= row.c0 + row.ck * k - shift
            for row in rows
        )
    ]
    return len(points), tuple(sum(x[i] for x in points) for i in range(plan.dim))


def test_interior_scan_of_a_plan_with_offsets():
    # Right-hand sides c0 + ck*k with c0 != 0, against a box scan.
    for k in range(4):
        box = 8 + 4 * k
        assert plan_count_and_sum(OFFSET_PLAN, k) == box_scan(OFFSET_PLAN, k, False, box)
        assert plan_count_and_sum(OFFSET_PLAN, k, interior=True) == box_scan(
            OFFSET_PLAN, k, True, box
        )


def test_interior_scan_matches_per_leaf_oracle_on_lowered_rows(monkeypatch):
    # The interior of the k-th dilation is the k-th dilation of the plan
    # whose rows are lowered by 1: on futaki(2,2), whose levels 2..
    # memoize, on p2 x fano3fold_5_2, whose level 3 is keyed by two rows,
    # on plans with c0 != 0 or loose levels, and on futaki(1,2) at k >= 10,
    # whose intervals are closed by floor sums.
    f22 = plan_for_polytope(polytope_from_fan(generate_futaki(2, 2)))
    assert any(rows is not None for rows in f22.memo_keys)
    p2_f52 = plan_for_polytope(bundled_product("p2", "fano3fold_5_2"))
    assert len(p2_f52.memo_keys[3]) == 2
    cases = [(f22, range(5)), (p2_f52, range(5)), (OFFSET_PLAN, range(6))]
    cases += [(plan, (1, 9, 30)) for plan in LOOSE_PLANS]
    closed = closed_intervals(monkeypatch)
    for plan, ks in cases:
        for k in ks:
            assert plan_count_and_sum(plan, k, interior=True) == (
                helpers_scan.plan_count_and_sum(lowered(plan), k)
            )
    f12 = plan_for_polytope(polytope_from_fan(generate_futaki(1, 2)))
    for k in range(10, 15):
        del closed[:]
        assert plan_count_and_sum(f12, k, interior=True) == (
            helpers_scan.plan_count_and_sum(lowered(f12), k)
        )
        assert closed, k


def test_closing_every_interval_matches_per_leaf_oracle(monkeypatch):
    # Intervals of one and two values, and every other length below the
    # cutoff, through the closed branch.
    monkeypatch.setattr(latticecount, "CLOSE_FROM", 0)
    closed = closed_intervals(monkeypatch)
    plans = [plan_for_polytope(polytope_from_fan(load_bundled(name))) for name in BUNDLED]
    plans += [plan_for_polytope(p) for p in _random_lattice_polytopes(random.Random(7), 30)]
    plans += LOOSE_PLANS
    for plan in plans:
        for k in range(plan.dim + 3):
            assert plan_count_and_sum(plan, k) == helpers_scan.plan_count_and_sum(plan, k)
    assert {0, 1} <= set(closed)


def scanned_dilations(monkeypatch):
    """Counter of k over the real scans made from here on, with cold plans.

    A scan of the interior of kP is recorded as -k.
    """
    plan_for_polytope.cache_clear()
    calls = Counter()
    scan = latticecount.plan_count_and_sum

    def counted(plan, k, interior=False):
        calls[-k if interior else k] += 1
        return scan(plan, k, interior)

    monkeypatch.setattr(latticecount, "plan_count_and_sum", counted)
    return calls


def test_rigidity_verdict_scans_each_dilation_once(monkeypatch):
    p = _random_lattice_polytopes(random.Random(20250801), 5)[4]  # centrally symmetric
    n = p.dim
    calls = scanned_dilations(monkeypatch)
    verdict = rigidity_verdict(p, range(1, n + 2))
    assert verdict.identically_zero
    # k = 1..n+1 for Bc_k, then the closed form takes them as its first
    # n+1 nodes and adds the interior of P, k = -1, as its check.
    assert calls == Counter([*range(1, n + 2), -1])


def test_analyze_scans_each_dilation_once(monkeypatch):
    calls = scanned_dilations(monkeypatch)
    analyze(load_bundled("futaki_1_2"), name="futaki_1_2")
    # A reflexive 4-fold with Bc_1 != 0.  Its volume comes first, from the
    # closed form's n+2 = 6 nodes -1, 1, -2, 2, -3, 3, where node -k is
    # read off the scan of (k-1)P and -1 off 0P = {0}; Bc_k for k = 1..3
    # (k_max = 3) and the Ehrhart polynomial reuse them, and the chain
    # stops at its first witness.  No interior is scanned.
    assert calls == Counter([1, 2, 3])


def reflexive_test_polytopes():
    """The bundled fans' P, futaki (1,1) to (3,4), V_4, V_6 and the
    reflexive polygons, then one unimodular image of each."""
    fans = [load_bundled(name) for name in BUNDLED]
    fans += [generate_futaki(a, b) for a in (1, 2, 3) for b in (1, 2, 3, 4)]
    fans += [Fan.from_rays(v_n_rays(n)) for n in (4, 6)]
    fans += reflexive_polygon_classes()
    polytopes = [polytope_from_fan(f) for f in fans]
    rng = random.Random(22)
    return polytopes + [
        polytope_from_vertices([mat_vec(m, v) for v in p.vertices])
        for p in polytopes
        for m in [random_unimodular(rng, size=p.dim, n=p.dim)]
    ]


def test_interior_route_is_the_oracle_for_reflexive_polytopes(monkeypatch):
    # int(kP) holds the lattice points of (k-1)P (Hibi 1992), which the
    # closed form of a reflexive plan reads off its own scans: the interior
    # scan is the oracle, for k = 1..n+2 up to n = 5 and above that for
    # k = 1..floor(n/2)+1, the closed form's negative nodes, since an image
    # that memoizes nothing costs about k^n.  The closed form is the same
    # with the flag cleared, from interior scans.
    for p in reflexive_test_polytopes():
        n = p.dim
        plan = build_plan(p)
        assert plan.reflexive
        assert plan_count_and_sum(plan, 0) == (1, (0,) * n)
        for k in range(1, (n + 2 if n <= 5 else n // 2 + 1) + 1):
            assert plan_count_and_sum(plan, k, interior=True) == plan_count_and_sum(plan, k - 1)
        monkeypatch.setattr(latticecount, "plan_for_polytope", lambda q: plan)
        brf = barycenter_rational_function(p)
        # The cleared plan shares the scans of kP, k >= 0, and scans the
        # interiors itself.
        cleared = EnumerationPlan(
            n, plan.levels, order=plan.order, scans={k: v for k, v in plan.scans.items() if k >= 0}
        )
        assert not cleared.reflexive
        monkeypatch.setattr(latticecount, "plan_for_polytope", lambda q: cleared)
        assert barycenter_rational_function(p) == brf
    assert not any(
        build_plan(p).reflexive for p in _random_lattice_polytopes(random.Random(20250801), 200)
    )


def assert_matches_direct_scan(p, k):
    count, sums = plan_count_and_sum(build_plan(p), k)
    assert count_lattice_points(p, k) == count
    assert quantized_barycenter(p, k) == tuple(Fraction(s, k * count) for s in sums)


def test_large_dilations_come_from_the_polynomials(monkeypatch):
    # futaki(1,2) is a 4-fold whose plan memoizes no level below n-2 = 2,
    # so a cold plan takes the polynomials once k^2 > 8 * (1 + 4 + ... + 36),
    # from k = 27: the scan benchmark's k = 30 is read off them.
    p = polytope_from_fan(generate_futaki(1, 2))
    assert memoized_levels(p) == {2}
    calls = scanned_dilations(monkeypatch)
    quantized_barycenter(p, 26)
    assert calls == Counter({26: 1})
    quantized_barycenter(p, 30)
    # The n+2 = 6 nodes: 26, which the plan holds, then -1, 1, -2, 2, -3.
    # P is reflexive, so node -k is read off the scan of (k-1)P.
    nodes = Counter([26, 1, 2])
    assert calls == nodes
    quantized_barycenter(p, 60)
    count_lattice_points(p, 45)
    assert calls == nodes
    assert plan_for_polytope(p).rational is not None
    for k in (26, 30, 45, 60):
        assert_matches_direct_scan(p, k)
    assert calls == nodes


def test_polynomial_route_matches_the_scan(monkeypatch):
    # Random lattice 4-polytopes past the rule (k >= 27) from cold plans.
    fourfolds = [p for p in _random_lattice_polytopes(random.Random(7), 30) if p.dim == 4]
    calls = scanned_dilations(monkeypatch)
    for p, k in zip(fourfolds, (27, 28, 27, 30)):
        assert_matches_direct_scan(p, k)
        assert plan_for_polytope(p).rational is not None
    # Only the nodes +-1, +-2, +-3 were scanned, once per polytope.
    assert calls == Counter({k: 4 for k in (1, -1, 2, -2, 3, -3)})


def test_polynomials_of_threefolds_match_the_scan():
    # n = 3 is always scanned, but its polynomials hold at large k as well:
    # futaki(1,1) and random lattice 3-polytopes.
    threefolds = [polytope_from_fan(generate_futaki(1, 1))]
    threefolds += [p for p in _random_lattice_polytopes(random.Random(7), 30) if p.dim == 3][:4]
    for p, k in zip(threefolds, (20, 16, 40, 100, 7)):
        brf = barycenter_rational_function(p)
        count, sums = plan_count_and_sum(build_plan(p), k)
        assert brf.ehrhart(k) == count
        assert brf.barycenter_at(k) == tuple(Fraction(s, k * count) for s in sums)


def permuted(p, order):
    """The polytope {y : y_j = x_order[j], x in P}."""
    return polytope_from_vertices([tuple(v[i] for i in order) for v in p.vertices])


def test_coordinate_permutations_permute_the_sums():
    # For every order of the coordinates, the permuted polytope's plan
    # scans in an order of its own, yet E(k), #int(kP) and the sums over
    # both are P's, permuted, and its points are the per-leaf oracle's.
    cases = _random_lattice_polytopes(random.Random(11), 6)
    cases += [polytope_from_fan(generate_futaki(a, b)) for a, b in ((1, 1), (1, 2))]
    for p in cases:
        n = p.dim
        plan = build_plan(p)
        scans = {
            (k, interior): plan_count_and_sum(plan, k, interior)
            for k in range(1, n + 3)
            for interior in (False, True)
        }
        points = enumerate_lattice_points(p)
        assert points == tuple(sorted(helpers_scan.plan_points(plan, 1)))
        for order in permutations(range(n)):
            q = permuted(p, order)
            q_plan = build_plan(q)
            for (k, interior), (count, sums) in scans.items():
                assert plan_count_and_sum(q_plan, k, interior) == (
                    count, tuple(sums[i] for i in order)
                ), (order, k, interior)
            q_points = enumerate_lattice_points(q)
            assert q_points == tuple(sorted(helpers_scan.plan_points(q_plan, 1)))
            assert sorted(q_points) == sorted(tuple(x[i] for i in order) for x in points)


def test_futaki_2_3_scans_within_budget():
    # futaki(2,3) at k = 1..8 and the interiors of those dilations, 34
    # million points at k = 8, from a cold plan.  Scanned with the fibre
    # coordinates first (`coordinate_order`), this took 0.03 s on a 2-core
    # Xeon with Python 3.11; in P's own order it took 0.34 s.
    p = polytope_from_fan(generate_futaki(2, 3))
    with Budget("futaki(2,3) at k = 1..8 and their interiors", 0.1):
        plan = build_plan(p)
        scans = [plan_count_and_sum(plan, k, interior) for k in range(1, 9) for interior in (0, 1)]
    assert [count for count, _ in scans[-2:]] == [33_813_289, 15_951_545]


def test_rational_polytope_scans_large_dilations(monkeypatch):
    # Counts of a rational polytope are quasi-polynomials: kP is scanned,
    # though its plan, like futaki(1,2)'s, memoizes no level below n-2.
    p = polytope_from_fan(generate_futaki(1, 2))
    half = polytope_from_vertices([tuple(Fraction(x, 2) for x in v) for v in p.vertices])
    assert plan_for_polytope(half).memo_keys == plan_for_polytope(p).memo_keys
    assert not any(plan_for_polytope(half).memo_keys[: half.dim - 2])
    calls = scanned_dilations(monkeypatch)
    count_lattice_points(half, 30)
    quantized_barycenter(half, 30)
    assert calls == Counter({30: 1})
    assert plan_for_polytope(half).rational is None


def test_memoized_plans_scan_large_dilations(monkeypatch):
    # A memoized level below n-2 makes the scan far cheaper than k^(n-2)
    # prefixes: such a plan, reflexive and first memoized at level m = 2
    # here, is scanned at k alone while k^2 <= REFLEXIVE_ROUTE = 432, up
    # to k = 20.
    v8 = polytope_from_fan(Fan.from_rays(v_n_rays(8)))
    futaki_2_2 = polytope_from_fan(generate_futaki(2, 2))
    calls = scanned_dilations(monkeypatch)
    with Budget("V_8 at k = 12 and 16 and futaki(2,2) at k = 16, by scan", 4.0):
        assert quantized_barycenter(v8, 12) == (0,) * 8
        assert count_lattice_points(v8, 12) == plan_count_and_sum(plan_for_polytope(v8), 12)[0]
        assert quantized_barycenter(v8, 16) == (0,) * 8
        bc = quantized_barycenter(futaki_2_2, 16)
    assert calls == Counter({12: 1, 16: 2})
    assert plan_for_polytope(v8).rational is None
    assert plan_for_polytope(futaki_2_2).rational is None
    # That holds even once the plan keeps its rational function.
    barycenter_rational_function(futaki_2_2)
    assert quantized_barycenter(futaki_2_2, 16) == bc
    quantized_barycenter(futaki_2_2, 20)
    # The rational function's n+2 = 7 nodes: -1, then 16, which the plan
    # holds, with its mirror -17, read off 16P, then 1, -2, 2, -3, of which
    # node -k is read off (k-1)P.  So P and 2P are scanned, not 3P.
    assert calls == Counter([12, 16, 16, 20, 1, 2])
    quantized_barycenter(futaki_2_2, 21)  # 21^2 > 432: read off the closed form
    assert calls == Counter([12, 16, 16, 20, 1, 2])


def test_memoized_plans_past_the_rule_come_from_the_polynomials(monkeypatch):
    # Past k^m = REFLEXIVE_ROUTE on a reflexive plan and MEMO_ROUTE on any
    # other, with m the first memoized level, the closed form is read and
    # matches the scan: V_6 and futaki(2,2) (m = 2) at k = 21, fano3fold_5_2
    # squared (m = 3) at 8 and the cube [-1, 1]^4 (m = 1) at 433, all
    # reflexive, and the cube [0, 1]^4, which is not, at 2049.
    cases = [
        (polytope_from_fan(Fan.from_rays(v_n_rays(6))), 2, 21),
        (polytope_from_fan(generate_futaki(2, 2)), 2, 21),
        (bundled_product("fano3fold_5_2", "fano3fold_5_2"), 3, 8),
        (polytope_from_vertices(list(product((-1, 1), repeat=4))), 1, 433),
        (polytope_from_vertices(list(product((0, 1), repeat=4))), 1, 2049),
    ]
    calls = scanned_dilations(monkeypatch)
    for p, m, k in cases:
        assert min(memoized_levels(p)) == m
        reflexive = plan_for_polytope(p).reflexive
        assert reflexive == (k != 2049)
        bound = latticecount.REFLEXIVE_ROUTE if reflexive else latticecount.MEMO_ROUTE
        assert k ** m > bound >= (k - 1) ** m
        count_lattice_points(p, k)
        quantized_barycenter(p, k)
        assert calls[k] == 0
        assert_matches_direct_scan(p, k)


def test_a_memoized_plan_at_a_huge_dilation_answers_within_budget():
    # Bc_k of V_6 at k = 10^11: a scan would step through about k^2
    # prefixes of levels 0 and 1; the closed form costs the scans of P, 2P
    # and 3P.
    v6 = polytope_from_fan(Fan.from_rays(v_n_rays(6)))
    k = 10 ** 11
    plan_for_polytope.cache_clear()
    with Budget("V_6 at k = 10^11 from a cold plan", 1.0):
        assert quantized_barycenter(v6, k) == (0,) * 6
        count = count_lattice_points(v6, k)
    assert count == ehrhart_polynomial(v6)(k)


def test_v8_plan_from_a_cold_cache():
    # The plan eliminates 7 coordinates from V_8's 18 facets, pruned by
    # their sets of 630 vertices, and runs no hull.  Measured at 1.2 ms on a
    # 2-core Xeon with Python 3.11, against 24 ms with one hull per
    # projection in lexicographic order, and 1.3-2.1 s in hash order.
    v8 = polytope_from_fan(Fan.from_rays(v_n_rays(8)))
    plan_for_polytope.cache_clear()
    with Budget("V_8 build_plan from a cold cache, and E(1)", 0.3):
        assert count_lattice_points(v8) == 3139


def test_seven_dimensional_scan_at_scale():
    # futaki(3,3) is 7-dimensional with barycenter 0, so Bc_3 = Bc_9 = 0 too.
    with Budget("futaki(3,3) at k = 3 and 9, 1,362,705 and 1,491,498,613 points", 2.0):
        plan = plan_for_polytope(polytope_from_fan(generate_futaki(3, 3)))
        scans = [plan_count_and_sum(plan, k) for k in (3, 9)]
    assert scans == [(1_362_705, (0,) * 7), (1_491_498_613, (0,) * 7)]


def test_ehrhart_polynomial_scans_the_nodes_nearest_zero(monkeypatch):
    # From cold caches a reflexive 7-fold's n+2 = 9 nodes are -1, 1, -2,
    # 2, -3, 3, -4, 4, -5, where node -k is read off the scan of (k-1)P:
    # k = 1..4 are each scanned once, and E is interpolated with the
    # coordinate sums.  Measured at 0.002-0.004 s on a 2-core Xeon with
    # Python 3.11, where scans of k = 1..9 take about 0.017 s.
    p = polytope_from_fan(generate_futaki(3, 3))
    calls = scanned_dilations(monkeypatch)
    with Budget("Ehrhart polynomial of futaki(3,3) from a cold plan", 0.2):
        e = ehrhart_polynomial(p)
    assert calls == Counter([1, 2, 3, 4])
    assert e(6) == plan_count_and_sum(build_plan(p), 6)[0]


# An interior scan runs only on a plan that is not reflexive.
NOT_REFLEXIVE_TRIANGLE = ((0, 0), (2, 0), (0, 3))


def break_one_scan(monkeypatch, p, scanned, entry):
    """Make the scan `scanned` = (k, interior) of a fresh plan of `p` off by
    one in its count (`entry` 0) or its first coordinate sum (`entry` 1).
    The plan is a fresh one, so that no cached plan keeps a wrong scan."""
    plan = build_plan(p)
    monkeypatch.setattr(latticecount, "plan_for_polytope", lambda q: plan)
    scan = latticecount.plan_count_and_sum

    def off_by_one(plan, k, interior=False):
        result = scan(plan, k, interior)
        if (k, interior) == scanned:
            count, sums = result
            result = (count + 1, sums) if entry == 0 else (count, (sums[0] + 1, *sums[1:]))
        return result

    monkeypatch.setattr(latticecount, "plan_count_and_sum", off_by_one)
    return plan


@pytest.mark.parametrize(
    "build, scanned, entry, message",
    [
        (barycenter_rational_function, (2, True), 0, "count at a further node"),
        (barycenter_rational_function, (2, True), 1, "sums at a further node"),
        (ehrhart_polynomial, (1, False), 0, "nonzero"),
    ],
)
def test_a_wrong_scan_at_a_node_is_caught(monkeypatch, build, scanned, entry, message):
    # A triangle that is not reflexive has the nodes 1, -1, 2, -2 from a
    # cold plan: E and each S_i are interpolated at 0, 1, -1, 2 and checked
    # at -2, the interior of 2P.  E's k^3 coefficient must vanish as well,
    # which catches a wrong count at 1.
    p = polytope_from_vertices(NOT_REFLEXIVE_TRIANGLE)
    assert not break_one_scan(monkeypatch, p, scanned, entry).reflexive
    with pytest.raises(InvariantViolation, match=message):
        build(p)


@pytest.mark.parametrize(
    "build, entry, message",
    [
        (ehrhart_polynomial, 0, "count at a further node"),
        (barycenter_rational_function, 1, "sums at a further node"),
    ],
)
def test_a_wrong_scan_of_a_reflexive_polytope_is_caught(monkeypatch, build, entry, message):
    # dp1 is reflexive, and its nodes are -1, 1, -2, 2: the scan of P gives
    # nodes 1 and -2, so a wrong count or sum there reaches the
    # interpolation twice and is caught at 2.  E's k^3 coefficient vanishes
    # by construction (the mirrored nodes), so that check does not see it.
    p = polytope_from_fan(load_bundled("dp1"))
    assert break_one_scan(monkeypatch, p, (1, False), entry).reflexive
    with pytest.raises(InvariantViolation, match=message):
        build(p)
