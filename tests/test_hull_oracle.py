"""Double description against the subset scans it replaced.

`helpers_hull` keeps the old n-subset and circuit scans.  Every hull,
vertex set, cone H-description, cone intersection and strong-convexity
verdict computed here must equal theirs exactly.
"""

import random
from itertools import combinations

import pytest

import helpers_hull as oracle
from test_acceptance import _random_lattice_polytopes
from toricsym.datasets import load_bundled
from toricsym.errors import ToricSymError
from toricsym.families import futaki_rays
from toricsym.fan import _is_strongly_convex, cone_facet_normals
from toricsym.polytope import (
    HPolytope,
    extreme_rays,
    polytope_from_vertices,
    vertices_from_inequalities,
)

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
