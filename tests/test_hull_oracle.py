"""Double description against the subset scans it replaced, the integer
routes against the Fraction routes they replaced, and the polar route of
`polytope_from_fan` against vertex enumeration of the anticanonical
system (`vertices_from_inequalities`), which it replaced.

`helpers_hull` keeps the old n-subset and circuit scans.  Every hull,
vertex set, cone H-description, cone intersection and strong-convexity
verdict computed here must equal theirs exactly.  `helpers_fraction` keeps
the hull, plan build, volume and barycenter that carried every coordinate
as a Fraction; the library's routes (for the volume and barycenter, the
leading coefficients of the Ehrhart polynomials) must equal them exactly,
incidence and dropped rows included, and must satisfy the identities of
P -> -P, P -> P/2 and lattice translations.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import helpers_fraction
import helpers_hull as oracle
from helpers_groups import v_n_rays
from helpers_reflexive import random_unimodular
from test_acceptance import Budget, _random_lattice_polytopes
from toricsym.datasets import load_bundled
from toricsym.errors import ToricSymError, UnboundedPolytopeError
from toricsym.families import futaki_rays
from toricsym.fan import (
    Fan,
    _is_strongly_convex,
    cone_facet_normals,
    face_fan_from_polytope,
    polytope_from_fan,
)
from toricsym.latticecount import build_plan
from toricsym.linalg import mat_vec
from toricsym.polytope import (
    HPolytope,
    extreme_rays,
    polytope_from_vertices,
    vertices_from_inequalities,
    volume_and_barycenter,
)

# The cached functions recompute on every call.
volume_and_barycenter = volume_and_barycenter.__wrapped__
polar = polytope_from_fan.__wrapped__

BUNDLED = (
    "p2", "p1xp1", "dp1", "dp2", "dp3", "fano3fold_5_2", "futaki_1_2", "weighted_112",
)


def anticanonical_system(n, rays):
    return HPolytope.make(n, [(tuple(-x for x in r), 1) for r in rays])


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
    h = anticanonical_system(len(rays[0]), rays)
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
    # futaki(3,3): 32 vertices and 10 facets in dimension 7, six
    # coordinates to eliminate.
    p = polytope_from_fan(Fan.from_rays(futaki_rays(3, 3)))
    with Budget("futaki(3,3) build_plan and volume_and_barycenter", 0.1):
        build_plan(p)
        volume_and_barycenter(p)


def anticanonical_by_vertex_enumeration(f):
    """P of a fan by double description of its H-description {<y, -v_i> <= 1}."""
    try:
        return vertices_from_inequalities(anticanonical_system(f.dim, f.rays))
    except UnboundedPolytopeError as exc:
        raise UnboundedPolytopeError(
            "anticanonical system is unbounded; the fan is not complete"
        ) from exc


def assert_polar_matches_vertex_enumeration(f):
    """The polar route, with the kept hull or without, equals the H-to-V route."""
    want = outcome(anticanonical_by_vertex_enumeration, f)
    assert outcome(polar, f) == want
    assert outcome(polar, Fan.make(f.dim, f.rays, f.max_cones)) == want
    return want


POLAR_FANS = (
    [f"bundled {name}" for name in BUNDLED]
    + [f"futaki {n1} {n2}" for n1 in (1, 2, 3) for n2 in range(n1, 5)]
    + [f"V {n}" for n in (4, 6, 8)]
)


@pytest.mark.parametrize("name", POLAR_FANS)
def test_polar_matches_vertex_enumeration(name):
    kind, *args = name.split()
    if kind == "bundled":
        f = load_bundled(args[0])
    elif kind == "futaki":
        f = Fan.from_rays(futaki_rays(*map(int, args)))
    else:
        f = Fan.from_rays(v_n_rays(int(args[0])))
    assert f.hull is not None
    p, dropped = assert_polar_matches_vertex_enumeration(f)
    assert dropped == () and p.vertices == tuple(sorted(p.vertices))
    assert f.max_cones == helpers_fraction.face_fan_cones(f.rays)


def random_ray_set(rng):
    """Rays in [-2, 2]^n, n = 2..4, some zero, repeated, between two others or not spanning."""
    n = rng.randint(2, 4)
    rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2 * n + 3))]
    if rays and rng.random() < 0.3:
        rays.append(rng.choice(rays))
    if len(rays) >= 2 and rng.random() < 0.3:
        r, s = rng.sample(rays, 2)
        if all((x + y) % 2 == 0 for x, y in zip(r, s)):
            rays.append(tuple((x + y) // 2 for x, y in zip(r, s)))
    if rng.random() < 0.2:
        rays.append((0,) * n)
    if rng.random() < 0.2:
        rays = [r[:-1] + (0,) for r in rays]
    return n, rays


def test_polar_matches_vertex_enumeration_on_random_ray_sets():
    # A fan without a kept hull (no cones here: polytope_from_fan reads only
    # the rays) builds its hull inside polytope_from_fan; a face fan keeps it.
    rng = random.Random(19)
    seen = {"bounded": 0, "unbounded": 0, "dropped rows": 0}
    for _ in range(800):
        n, rays = random_ray_set(rng)
        p, dropped = assert_polar_matches_vertex_enumeration(Fan.make(n, rays, ()))
        bounded = not isinstance(p, str)
        seen["bounded" if bounded else "unbounded"] += 1
        seen["dropped rows"] += bounded and bool(dropped)
        if not bounded:
            continue
        # The face fan of the vertices of conv(rays), which hold 0 inside.
        points = [tuple(map(int, v)) for v in polytope_from_vertices(rays).vertices]
        rng.shuffle(points)
        f = face_fan_from_polytope(points)
        assert f.max_cones == helpers_fraction.face_fan_cones(points)
        assert_polar_matches_vertex_enumeration(f)
    assert min(seen.values()) >= 100, seen
