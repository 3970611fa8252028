"""Identities of the H- and V-descriptions, of the lattice scan and of the
symmetry invariants under random GL(n, Z) maps.

For a unimodular A, the facets of A.P are the A^-T images of the facets of
P, with the same right-hand sides and the same incidences, and the vertex
description computed back from the facets is the one we started from.
The lattice points of k(A.P) are the A-images of those of kP, so the scan
finds as many and their coordinate sums map by A.  Aut P and Aut_0 P are
conjugated by A, so their orders, alpha and dim V^G do not change, nor do
the volume, the Ehrhart polynomial, the Demazure data and the verdict on
every node of the implication chain.
"""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from helpers_reflexive import random_unimodular
from toricsym.chain import verify_implication_chain
from toricsym.datasets import load_bundled
from toricsym.demazure import demazure_report
from toricsym.fan import Fan, polytope_from_fan
from toricsym.latticecount import ehrhart_polynomial, plan_count_and_sum, plan_for_polytope
from toricsym.linalg import invert_unimodular, mat_vec, transpose
from toricsym.polytope import (
    polytope_from_vertices,
    vertices_from_inequalities,
    volume_and_barycenter,
)
from toricsym.stability import alpha_invariant
from toricsym.symmetry import aut0_subgroup, classify_symmetry, polytope_automorphisms

BUNDLED = (
    "p2", "p1xp1", "dp1", "dp2", "dp3", "fano3fold_5_2", "futaki_1_2", "weighted_112",
)


@lru_cache(maxsize=None)
def bundled_polytopes(name):
    """The anticanonical polytope of a bundled fan and the hull of its rays."""
    f = load_bundled(name)
    return polytope_from_fan(f), polytope_from_vertices(f.rays)


def incidences(p):
    return {
        (p.inequalities[i], p.vertices[j])
        for i, tight in enumerate(p.incidence)
        for j in tight
    }


polytopes = st.tuples(st.sampled_from(BUNDLED), st.sampled_from((0, 1))).map(
    lambda key: bundled_polytopes(key[0])[key[1]]
)


@settings(max_examples=40, deadline=None)
@given(p=polytopes, rng=st.randoms(use_true_random=False))
def test_facets_of_unimodular_image(p, rng):
    a = random_unimodular(rng, size=8, n=p.dim)
    a_inv_t = transpose(invert_unimodular(a))

    def facet(ineq):
        return (mat_vec(a_inv_t, ineq[0]), ineq[1])

    image = polytope_from_vertices([mat_vec(a, v) for v in p.vertices])
    assert image.inequalities == tuple(sorted(facet(f) for f in p.inequalities))
    assert image.vertices == tuple(sorted(mat_vec(a, v) for v in p.vertices))
    assert incidences(image) == {(facet(f), mat_vec(a, v)) for f, v in incidences(p)}


@settings(max_examples=40, deadline=None)
@given(p=polytopes, rng=st.randoms(use_true_random=False))
def test_vertices_from_facets_round_trip(p, rng):
    a = random_unimodular(rng, size=8, n=p.dim)
    vertices = sorted(mat_vec(a, v) for v in p.vertices)
    q = polytope_from_vertices(vertices)
    back = vertices_from_inequalities(q.h)
    assert back.vertices == tuple(vertices)
    assert back == q
    assert back.dropped_inequalities == ()


@settings(max_examples=40, deadline=None)
@given(p=polytopes, k=st.integers(1, 3), rng=st.randoms(use_true_random=False))
def test_lattice_scan_of_unimodular_image(p, k, rng):
    a = random_unimodular(rng, size=8, n=p.dim)
    count, sums = plan_count_and_sum(plan_for_polytope(p), k)
    image = polytope_from_vertices([mat_vec(a, v) for v in p.vertices])
    assert plan_count_and_sum(plan_for_polytope(image), k) == (count, mat_vec(a, sums))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(BUNDLED), rng=st.randoms(use_true_random=False))
def test_alpha_and_fixed_dimension_of_unimodular_image(name, rng):
    f = load_bundled(name)
    a = random_unimodular(rng, size=8, n=f.dim)
    image = Fan.make(f.dim, [mat_vec(a, r) for r in f.rays], f.max_cones)
    assert alpha_invariant(image) == alpha_invariant(f)
    assert classify_symmetry(image) == classify_symmetry(f)
    assert verify_implication_chain(image).nodes == verify_implication_chain(f).nodes
    # The polytope moves by A^-T: its groups are conjugated, and its volume,
    # lattice points and the Demazure data do not change.
    p, q = polytope_from_fan(f), polytope_from_fan(image)
    assert polytope_automorphisms(q).order == polytope_automorphisms(p).order
    assert aut0_subgroup(q).order == aut0_subgroup(p).order
    assert volume_and_barycenter(q)[0] == volume_and_barycenter(p)[0]
    assert ehrhart_polynomial(q) == ehrhart_polynomial(p)
    rep, rep_image = demazure_report(f), demazure_report(image)
    for field in ("weyl_order", "component_group_order", "dim_aut0", "gs_factor_sizes"):
        assert getattr(rep_image, field) == getattr(rep, field), field
