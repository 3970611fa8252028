"""Double description against the subset scans it replaced, and the
integer routes against the Fraction routes they replaced.

`helpers_hull` keeps the old n-subset and circuit scans.  Every hull,
vertex set, cone H-description, cone intersection and strong-convexity
verdict computed here must equal theirs exactly.  `helpers_fraction` keeps
the hull, plan build, volume and barycenter that carried every coordinate
as a Fraction; the integer-scaled routes must equal them exactly, incidence
and dropped rows included, and must satisfy the identities of P -> -P,
P -> P/2 and lattice translations.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import helpers_fraction
import helpers_hull as oracle
from helpers_reflexive import random_unimodular
from test_acceptance import Budget, _random_lattice_polytopes
from toricsym.datasets import load_bundled
from toricsym.errors import ToricSymError
from toricsym.families import futaki_rays
from toricsym.fan import Fan, _is_strongly_convex, cone_facet_normals, polytope_from_fan
from toricsym.latticecount import build_plan
from toricsym.linalg import mat_vec
from toricsym.polytope import (
    HPolytope,
    extreme_rays,
    polytope_from_vertices,
    vertices_from_inequalities,
    volume_and_barycenter,
)

# The cached function recomputes on every call.
volume_and_barycenter = volume_and_barycenter.__wrapped__

BUNDLED = (
    "p2", "p1xp1", "dp1", "dp2", "dp3", "fano3fold_5_2", "futaki_1_2", "weighted_112",
)


def anticanonical_system(rays):
    return HPolytope.make(len(rays[0]), [(tuple(-x for x in r), 1) for r in rays])


def outcome(fn, *args):
    """The polytope with its dropped rows, or the error's type and message."""
    try:
        p = fn(*args)
    except ToricSymError as exc:
        return type(exc).__name__, str(exc)
    return p, p.dropped_inequalities


def assert_hull_and_anticanonical_match(rays):
    assert outcome(polytope_from_vertices, rays) == outcome(
        oracle.polytope_from_vertices, rays
    )
    h = anticanonical_system(rays)
    assert outcome(vertices_from_inequalities, h) == outcome(
        oracle.vertices_from_inequalities, h
    )


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_fans_match_subset_scans(name):
    f = load_bundled(name)
    assert_hull_and_anticanonical_match(f.rays)
    hreps = []
    for cone in f.max_cones:
        gens = [f.rays[i] for i in cone]
        eqs, ineqs = cone_facet_normals(gens, f.dim)
        old_eqs, old_ineqs = oracle.cone_facet_normals(gens, f.dim)
        assert eqs == old_eqs
        assert ineqs == tuple(sorted(old_ineqs))
        assert _is_strongly_convex(gens, f.dim) == oracle.is_strongly_convex(gens, f.dim)
        hreps.append((eqs, ineqs))
    # The cone intersections that validate_fan compares pairwise.
    for (eqs_i, ineqs_i), (eqs_j, ineqs_j) in combinations(hreps, 2):
        eqs = tuple(eqs_i) + tuple(eqs_j)
        ineqs = tuple(ineqs_i) + tuple(ineqs_j)
        assert extreme_rays(eqs, ineqs, f.dim) == tuple(
            sorted(oracle.cone_extreme_rays(eqs, ineqs, f.dim))
        )


@pytest.mark.parametrize("n1,n2", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_futaki_polytopes_match_subset_scans(n1, n2):
    assert_hull_and_anticanonical_match(futaki_rays(n1, n2))


def test_criterion_4_polytopes_match_subset_scans():
    new = _random_lattice_polytopes(random.Random(20250801), 60)
    old = _random_lattice_polytopes(
        random.Random(20250801), 60, hull=oracle.polytope_from_vertices
    )
    assert new == old
    # The scan of vertices_from_inequalities needs a minute on the 4-polytopes
    # with 30-40 facets, so the H-to-V direction is checked as a round trip.
    for p in new:
        assert outcome(vertices_from_inequalities, p.h) == (p, ())


def test_degenerate_systems_match_subset_scans():
    # Rows <r, y> <= 1 with r in {-1, 0, 1}^n put many rows through a
    # vertex, where a combination of two rays that are not adjacent would
    # add a point that is not a vertex.  Unbounded and empty systems must
    # fail with the same error.
    rng = random.Random(5)
    bounded = 0
    for _ in range(80):
        n = rng.choice([4, 5])
        rows = {tuple(rng.choice((-1, 0, 1)) for _ in range(n)) for _ in range(n + 5)}
        h = HPolytope.make(n, [(r, 1) for r in sorted(rows - {(0,) * n})])
        new = outcome(vertices_from_inequalities, h)
        assert new == outcome(oracle.vertices_from_inequalities, h)
        bounded += not isinstance(new[0], str)
    assert bounded >= 20


def assert_integer_routes_match_fraction_routes(points):
    """Hull, plan, volume and barycenter of conv(points) equal the Fraction routes."""
    new = outcome(polytope_from_vertices, points)
    assert new == outcome(helpers_fraction.polytope_from_vertices, points)
    p = new[0]
    assert build_plan(p) == helpers_fraction.build_plan(p)
    vol, bc = volume_and_barycenter(p)
    assert (vol, bc) == helpers_fraction.volume_and_barycenter(p)
    return p, vol, bc


def assert_identities(points, vol, bc):
    """-P, P/2 and P + t for a lattice vector t, against vol and bc of P."""
    n = len(bc)
    assert volume_and_barycenter(polytope_from_vertices([[-x for x in v] for v in points])) == (
        vol, tuple(-x for x in bc)
    )
    half = polytope_from_vertices([[Fraction(x, 2) for x in v] for v in points])
    assert volume_and_barycenter(half) == (vol / 2**n, tuple(x / 2 for x in bc))
    t = tuple(range(-1, n - 1))
    moved = polytope_from_vertices([[x + y for x, y in zip(v, t)] for v in points])
    assert volume_and_barycenter(moved) == (vol, tuple(x + y for x, y in zip(bc, t)))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_fans_match_fraction_routes(name):
    f = load_bundled(name)
    for points in (f.rays, polytope_from_fan(f).vertices):
        assert_identities(points, *assert_integer_routes_match_fraction_routes(points)[1:])


def test_futaki_polytopes_match_fraction_routes():
    for n1 in (1, 2, 3):
        for n2 in (1, 2, 3):
            vertices = polytope_from_fan(Fan.from_rays(futaki_rays(n1, n2))).vertices
            p, vol, bc = assert_integer_routes_match_fraction_routes(vertices)
            assert p.vertices == vertices
            if n1 + n2 <= 4:
                assert_identities(vertices, vol, bc)


def test_criterion_4_polytopes_match_fraction_routes():
    rng = random.Random(7)
    for p in _random_lattice_polytopes(random.Random(20250801), 60):
        n = p.dim
        halves = [[Fraction(x, 2) for x in v] for v in p.vertices]
        a = random_unimodular(rng, size=8, n=n)
        image = [mat_vec(a, v) for v in p.vertices]
        for points in (p.vertices, halves, image):
            q, vol, bc = assert_integer_routes_match_fraction_routes(points)
            assert_identities(points, vol, bc)
        assert q.vertices == tuple(sorted(tuple(v) for v in image))


def test_plan_and_volume_of_a_sevenfold_within_budget():
    # futaki(3,3): 32 vertices in dimension 7, six projections to hull.
    p = polytope_from_fan(Fan.from_rays(futaki_rays(3, 3)))
    with Budget("futaki(3,3) build_plan and volume_and_barycenter", 0.1):
        build_plan(p)
        volume_and_barycenter(p)
