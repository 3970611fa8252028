from fractions import Fraction
from itertools import product

import pytest

from helpers_groups import (
    aut0_by_facet_predicate,
    identity_index,
    pairwise_group_check,
    trivial_subgroup,
    v_n_rays,
    with_extra_element,
    with_repeated_permutation,
    without_element,
)
from toricsym import symmetry
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import InvariantViolation, NonLatticePolytopeError, ValidationError
from toricsym.families import generate_futaki
from toricsym.fan import Fan, polytope_from_fan
from toricsym.latticecount import enumerate_lattice_points
from toricsym.linalg import det, dot, mat_vec, transpose
from toricsym.polytope import polytope_from_vertices, volume_and_barycenter
from toricsym.report import analyze
from toricsym.symmetry import (
    aut0_subgroup,
    classify_symmetry,
    fan_automorphisms,
    fixed_space_dimension,
    fixed_subspace,
    group_sum,
    polytope_automorphisms,
    roots,
)


def bundled_and_futaki():
    """The 8 bundled fans and futaki (2,2), (1,3), (2,3), all Fano."""
    fans = [(name, load_bundled(name)) for name in BUNDLED]
    return fans + [
        (f"futaki_{a}_{b}", generate_futaki(a, b)) for a, b in ((2, 2), (1, 3), (2, 3))
    ]


def brute_force_lattice_maps(point_set, bound=4):
    """Oracle: all 2x2 integer matrices with |entries| <= bound and
    det +-1 mapping the point set onto itself."""
    pts = set(point_set)
    found = []
    for a, b, c, d in product(range(-bound, bound + 1), repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        if {(a * x + b * y, c * x + d * y) for x, y in pts} == pts:
            found.append(((a, b), (c, d)))
    return found


def test_aut_p2(p2_fan):
    p = polytope_from_fan(p2_fan)
    g = polytope_automorphisms(p)
    assert g.order == 6
    verts = tuple(tuple(int(x) for x in v) for v in p.vertices)
    assert len(brute_force_lattice_maps(verts)) == 6


def test_aut_dp1(dp1_fan):
    p = polytope_from_fan(dp1_fan)
    g = polytope_automorphisms(p)
    assert g.order == 2
    swap = ((0, 1), (1, 0))
    assert swap in g.elements


def test_aut_square(p1xp1_fan):
    p = polytope_from_fan(p1xp1_fan)
    assert polytope_automorphisms(p).order == 8


def test_aut_dp3(dp3_fan):
    assert polytope_automorphisms(polytope_from_fan(dp3_fan)).order == 12


def test_aut_rejects_rational_polytope():
    half = polytope_from_vertices(
        [(0, 1), (0, -1), (Fraction(1, 2), 0), (Fraction(-1, 2), 0)]
    )
    with pytest.raises(NonLatticePolytopeError):
        polytope_automorphisms(half)


def test_group_axioms():
    # The check on generators agrees with the pairwise matrix oracle.
    for name, f in bundled_and_futaki():
        p = polytope_from_fan(f)
        for g in (polytope_automorphisms(p), aut0_subgroup(p), fan_automorphisms(f)):
            assert g.check_group_axioms() and pairwise_group_check(g), name
            # The frame search keeps no determinant filter: an integral map
            # permuting a spanning set has finite order.
            assert all(det(e) in (1, -1) for e in g.elements), name


def test_group_check_rejects_non_groups():
    for f in (load_bundled("p1xp1"), generate_futaki(2, 2)):
        p = polytope_from_fan(f)
        full = polytope_automorphisms(p)
        e = identity_index(full)
        for bad in (
            without_element(full, (e + 1) % full.order),
            without_element(full, e),
            with_extra_element(aut0_subgroup(p), full),
        ):
            with pytest.raises(InvariantViolation):
                bad.check_group_axioms()
            with pytest.raises(InvariantViolation):
                pairwise_group_check(bad)
        # The matrices still form a group; only the permutations repeat.
        with pytest.raises(InvariantViolation, match="repeat"):
            with_repeated_permutation(full).check_group_axioms()


def test_fan_aut_matches_polytope_aut():
    # The Fano paths search Aut P only, so the transpose identity is kept
    # checked here.
    for name, f in bundled_and_futaki():
        gf = fan_automorphisms(f)  # transpose duality asserted inside
        gp = polytope_automorphisms(polytope_from_fan(f))
        assert gf.order == gp.order, name
        assert {transpose(g) for g in gf.elements} == set(gp.elements), name


def test_fan_aut_weighted_112(w112_fan):
    # Brute force over bounded unimodular candidates finds exactly the
    # identity and one involution exchanging the two weight-1 rays (the
    # swap composed with a shear), so the order is 2.
    g = fan_automorphisms(w112_fan)
    assert g.order == 2
    rays = set(w112_fan.rays)
    cones = {frozenset(w112_fan.rays[i] for i in c) for c in w112_fan.max_cones}
    brute = []
    for a, b, c, d in product(range(-4, 5), repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        img = {(a * x + b * y, c * x + d * y) for x, y in rays}
        if img != rays:
            continue
        imgcones = {
            frozenset((a * x + b * y, c * x + d * y) for x, y in cone)
            for cone in cones
        }
        if imgcones == cones:
            brute.append(((a, b), (c, d)))
    assert len(brute) == 2
    assert set(brute) == set(g.elements)


def test_fixed_subspace_p2(p2_fan):
    g = polytope_automorphisms(polytope_from_fan(p2_fan)).elements
    assert fixed_subspace(g) == ()


def test_fixed_subspace_dp1(dp1_fan):
    g = polytope_automorphisms(polytope_from_fan(dp1_fan)).elements
    assert fixed_subspace(g) == ((1, 1),)


def test_fixed_subspace_trivial_group():
    g = trivial_subgroup(2)
    basis = fixed_subspace(g)
    assert len(basis) == 2


def test_group_sum_fixes_the_barycenter():
    # Bc(P) is fixed by Aut P, so S.Bc = |G|.Bc; S/|G| is a projection of
    # trace dim V^G, the length of the kernel basis.
    for name in BUNDLED:
        p = polytope_from_fan(load_bundled(name))
        for g in (polytope_automorphisms(p), aut0_subgroup(p), trivial_subgroup(p.dim)):
            s = group_sum(g)
            _, bc = volume_and_barycenter(p)
            assert mat_vec(s, bc) == tuple(g.order * x for x in bc), name
            assert fixed_space_dimension(g) == len(fixed_subspace(g)), name


def test_generated_by_closes_generators_inside_the_group(p1xp1_fan, dp2_fan):
    full = polytope_automorphisms(polytope_from_fan(p1xp1_fan))
    swap, minus = ((0, 1), (1, 0)), ((-1, 0), (0, -1))
    assert full.generated_by([swap]).order == 2
    assert full.generated_by([swap, minus]).order == 4
    assert full.generated_by([swap, ((0, -1), (1, 0))]) == full
    assert full.generated_by([]).elements == (((1, 0), (0, 1)),)
    for bad in (((1, 1), (0, 1)), ((2, 0), (0, 1)), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValidationError):
            full.generated_by([swap, bad])
    # The swap lies in Aut P of dp2 but the rotation of the square does not.
    dp2 = polytope_automorphisms(polytope_from_fan(dp2_fan))
    assert dp2.generated_by([[[0, 1], [1, 0]]]).order == 2
    with pytest.raises(ValidationError):
        dp2.generated_by([((0, -1), (1, 0))])


def test_roots_p2(p2_fan):
    rd = roots(p2_fan)
    assert rd.root_set == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    assert len(rd.semisimple) == 6 and not rd.unipotent
    assert rd.is_centrally_lattice_symmetric()


def test_roots_dp1(dp1_fan):
    rd = roots(dp1_fan)
    assert {m for m, _ in rd.semisimple} == {(1, -1), (-1, 1)}
    assert {m for m, _ in rd.unipotent} == {(1, 0), (0, 1)}
    assert not rd.is_centrally_lattice_symmetric()


def test_roots_dp2(dp2_fan):
    rd = roots(dp2_fan)
    assert {m for m, _ in rd.semisimple} == set()
    assert {m for m, _ in rd.unipotent} == {(-1, 0), (0, -1)}


def test_roots_p1xp1(p1xp1_fan):
    rd = roots(p1xp1_fan)
    assert rd.root_set == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(rd.semisimple) == 4 and not rd.unipotent


def test_roots_dp3_empty(dp3_fan):
    assert roots(dp3_fan).roots == ()
    assert roots(dp3_fan).is_centrally_lattice_symmetric()


def test_roots_pair_to_exactly_one_ray(del_pezzo_fans, fano52_fan):
    fans = list(del_pezzo_fans.values()) + [fano52_fan]
    for f in fans:
        rd = roots(f)
        for m, i in rd.roots:
            pairings = [dot(m, v) for v in f.rays]
            assert pairings[i] == -1
            assert sum(1 for x in pairings if x == -1) == 1
            assert all(x >= 0 for j, x in enumerate(pairings) if j != i)


def test_roots_equal_facet_interior_points(del_pezzo_fans, fano52_fan):
    # Second route: roots are the lattice points interior to exactly one
    # facet of the polytope.
    fans = list(del_pezzo_fans.values()) + [fano52_fan]
    for f in fans:
        p = polytope_from_fan(f)
        interior_pts = set()
        for pt in enumerate_lattice_points(p):
            tight = [
                j
                for j, (a, rhs) in enumerate(p.inequalities)
                if dot(a, pt) == rhs
            ]
            if len(tight) == 1:
                interior_pts.add(pt)
        assert roots(f).root_set == interior_pts


def test_aut_permutes_root_sets(del_pezzo_fans):
    for f in del_pezzo_fans.values():
        rd = roots(f)
        for g in polytope_automorphisms(polytope_from_fan(f)).elements:
            for part in (rd.root_set,
                         frozenset(m for m, _ in rd.semisimple),
                         frozenset(m for m, _ in rd.unipotent)):
                assert frozenset(tuple(mat_vec(g, m)) for m in part) == part


def test_classification_table(p1xp1_fan, p2_fan, dp1_fan, dp2_fan, dp3_fan):
    expected = {
        id(p1xp1_fan): (True, True, True),
        id(p2_fan): (False, True, True),
        id(dp1_fan): (False, False, False),
        id(dp2_fan): (False, False, False),
        id(dp3_fan): (True, True, True),
    }
    for f in (p1xp1_fan, p2_fan, dp1_fan, dp2_fan, dp3_fan):
        cls = classify_symmetry(f)
        assert (
            cls.centrally_symmetric,
            cls.bs_symmetric,
            cls.centrally_lattice_symmetric,
        ) == expected[id(f)]


def test_classification_rejects_non_fano():
    f = Fan.from_rays([(1, 0), (0, 1), (-1, -3)])
    from toricsym.errors import NonFanoError

    with pytest.raises(NonFanoError):
        classify_symmetry(f)


def test_aut0_orders(p2_fan, p1xp1_fan, dp1_fan, dp2_fan, dp3_fan):
    expected = {
        id(p2_fan): 6,
        id(p1xp1_fan): 4,
        id(dp3_fan): 1,
        id(dp1_fan): 2,
        id(dp2_fan): 1,
    }
    for f in (p2_fan, p1xp1_fan, dp1_fan, dp2_fan, dp3_fan):
        p = polytope_from_fan(f)
        sub = aut0_subgroup(p, root_data=roots(f))
        assert sub.order == expected[id(f)]
        full = polytope_automorphisms(p)
        assert set(sub.elements) <= set(full.elements)


def test_aut0_weyl_group_matches_facet_predicate():
    # Two routes to Aut_0 P: the closure of the root reflections, and the
    # facet predicate tested on every element of Aut P.
    fans = [(name, load_bundled(name)) for name in BUNDLED]
    fans += [
        (f"futaki_{a}_{b}", generate_futaki(a, b))
        for a, b in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3))
    ]
    fans.append(("V_4", Fan.from_rays(v_n_rays(4))))
    for name, f in fans:
        p = polytope_from_fan(f)
        weyl = aut0_subgroup(p, root_data=roots(f))
        assert set(weyl.elements) == set(aut0_by_facet_predicate(p, roots(f)).elements), name
        assert weyl.check_group_axioms(), name
    # V_4 has no roots, so W is trivial inside its Aut P of order 240.
    assert aut0_subgroup(polytope_from_fan(fans[-1][1])).order == 1


def test_aut0_raises_on_a_reflection_outside_aut_p(monkeypatch, p2_fan):
    # A broken invariant, not bad input: the theorem puts every root
    # reflection in Aut P.
    p = polytope_from_fan(p2_fan)
    full = polytope_automorphisms(p)
    monkeypatch.setattr(
        symmetry, "polytope_automorphisms",
        lambda q: full.generated_by([]) if q == p else polytope_automorphisms(q),
    )
    aut0_subgroup.cache_clear()
    with pytest.raises(InvariantViolation, match="reflection"):
        aut0_subgroup(p)
    aut0_subgroup.cache_clear()


def test_aut0_dp1_is_full_group(dp1_fan):
    p = polytope_from_fan(dp1_fan)
    assert aut0_subgroup(p).order == polytope_automorphisms(p).order


def test_fan_aut_fano52(fano52_fan):
    g = fan_automorphisms(fano52_fan)
    fixed = fixed_subspace([transpose(h) for h in g.elements])
    assert len(fixed) == 1  # alpha < 1 comes from this one fixed line


def test_analyze_computes_aut0_once(monkeypatch):
    # The symmetry stage and demazure_report both ask for Aut_0 P; one
    # search and one group check serve both.
    calls = []
    rays = symmetry.rays_of_reflexive
    monkeypatch.setattr(symmetry, "rays_of_reflexive", lambda p: calls.append(p) or rays(p))
    aut0_subgroup.cache_clear()
    rep = analyze(generate_futaki(2, 2), name="futaki_2_2")
    assert len(calls) == 1
    assert rep["symmetry"]["aut0_p_order"] == rep["demazure"]["weyl_order"]
