"""The plan built by Fourier-Motzkin elimination against the plan built
with one hull per projection, which it replaced (`helpers_hull.build_plan`).

Both must give the same levels, scan order and memo keys on every input
here: the bundled fans, futaki bundles and V_n up to dimension 8, the
criterion-4 polytopes and their halves, random polytopes of dimensions
1-6, facet-heavy polytopes whose first elimination meets hundreds of
rows of each sign, and GL(n, Z) images.  The elimination reads P's
facets and incidence alone, so it must run no double description.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers_hull
from helpers_groups import v_n_rays
from helpers_reflexive import random_unimodular
from test_acceptance import _random_lattice_polytopes
from test_latticecount import IMBERT_SIMPLEX
from toricsym import polytope
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import ValidationError
from toricsym.families import generate_futaki
from toricsym.fan import Fan, polytope_from_fan
from toricsym.latticecount import build_plan
from toricsym.linalg import mat_vec
from toricsym.polytope import polytope_from_vertices

FUTAKI = ((1, 2), (2, 2), (3, 3), (3, 4), (1, 6))


def assert_plan_matches_hull_oracle(p):
    plan, want = build_plan(p), helpers_hull.build_plan(p)
    assert plan.levels == want.levels
    assert plan.order == want.order
    assert plan.memo_keys == want.memo_keys


def named_polytope(name):
    kind, *args = name.split()
    if kind == "bundled":
        return polytope_from_fan(load_bundled(args[0]))
    if kind == "futaki":
        return polytope_from_fan(generate_futaki(*map(int, args)))
    if kind == "V":
        return polytope_from_fan(Fan.from_rays(v_n_rays(int(args[0]))))
    return polytope_from_vertices(IMBERT_SIMPLEX)


NAMED = (
    [f"bundled {name}" for name in BUNDLED]
    + [f"futaki {n1} {n2}" for n1, n2 in FUTAKI]
    + [f"V {n}" for n in (4, 6, 8)]
    + ["imbert simplex"]
)


@pytest.mark.parametrize("name", NAMED)
def test_plan_matches_hull_oracle(name):
    assert_plan_matches_hull_oracle(named_polytope(name))


def test_criterion_4_plans_match_hull_oracle():
    # Halved, the facets of P and of its projections have fractional
    # right-hand sides.
    lattice = _random_lattice_polytopes(random.Random(20250801), 200)
    halves = [
        polytope_from_vertices([tuple(Fraction(x, 2) for x in v) for v in p.vertices])
        for p in lattice[:30]
    ]
    for p in lattice + halves:
        assert_plan_matches_hull_oracle(p)


def random_polytopes(rng, count):
    """Hulls of n+1..n+8 points in [-3, 3]^n, n = 1..6 round robin; every
    third has its coordinates divided by 1, 2 or 3."""
    out = []
    while len(out) < count:
        n = 1 + len(out) % 6
        den = rng.randint(1, 3) if len(out) % 3 == 2 else 1
        pts = [
            tuple(Fraction(rng.randint(-3, 3), den) for _ in range(n))
            for _ in range(n + rng.randint(1, 8))
        ]
        try:
            out.append(polytope_from_vertices(pts))
        except ValidationError:  # not full-dimensional
            continue
    return out


def test_random_plans_match_hull_oracle():
    polytopes = random_polytopes(random.Random(20), 84)
    assert {p.dim for p in polytopes} == set(range(1, 7))
    for p in polytopes:
        assert_plan_matches_hull_oracle(p)


def shell_points(rng, n, count, r):
    """`count` distinct integer points with r*r - r < |v|^2 <= r*r."""
    pts = set()
    while len(pts) < count:
        v = tuple(rng.randint(-r, r) for _ in range(n))
        if r * r - r < sum(x * x for x in v) <= r * r:
            pts.add(v)
    return sorted(pts)


@pytest.mark.parametrize("n,count", [(4, 80), (5, 36), (5, 44), (6, 26), (6, 30)])
def test_facet_heavy_plans_match_hull_oracle(n, count):
    # Points near a sphere are all vertices, and the hull is simplicial
    # with hundreds of facets, so the first elimination pairs hundreds of
    # rows of each sign and the popcount test rejects nearly every pair.
    p = polytope_from_vertices(shell_points(random.Random(n * 100 + count), n, count, 12))
    assert len(p.inequalities) >= 400
    assert_plan_matches_hull_oracle(p)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(NAMED[: NAMED.index("V 6")]), rng=st.randoms(use_true_random=False))
def test_plan_of_unimodular_image_matches_hull_oracle(name, rng):
    p = named_polytope(name)
    a = random_unimodular(rng, size=3 * p.dim, n=p.dim)
    assert_plan_matches_hull_oracle(polytope_from_vertices([mat_vec(a, v) for v in p.vertices]))


def test_build_plan_runs_no_double_description(monkeypatch):
    cases = [named_polytope(name) for name in NAMED]
    cases += _random_lattice_polytopes(random.Random(20250801), 20)

    def refuse(*args):
        raise AssertionError("build_plan ran a double description")

    monkeypatch.setattr(polytope, "extreme_rays", refuse)
    for p in cases:
        build_plan(p)
    with pytest.raises(AssertionError, match="double description"):
        helpers_hull.build_plan(cases[0])
