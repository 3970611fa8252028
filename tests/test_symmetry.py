from fractions import Fraction
from itertools import product

import pytest

from helpers_groups import (
    TRIVIAL_GROUP,
    aut0_by_facet_predicate,
    aut_delta_maps,
    aut_p_maps,
    elements_of,
    pairwise_group_check,
    v_n_rays,
)
from test_demazure import hirzebruch
from toricsym import symmetry
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import InvariantViolation, NonLatticePolytopeError, ValidationError
from toricsym.families import generate_futaki
from toricsym.fan import Fan, is_fano, polytope_from_fan
from toricsym.latticecount import enumerate_lattice_points
from toricsym.linalg import det, dot, identity, mat_vec, transpose
from toricsym.polytope import polytope_from_vertices, volume_and_barycenter
from toricsym.report import analyze
from toricsym.stability import alpha_invariant
from toricsym.symmetry import (
    RootData,
    aut0_subgroup,
    classify_symmetry,
    fan_automorphisms,
    fixed_subspace,
    polytope_automorphisms,
    roots,
)


def bundled_and_futaki():
    """The 8 bundled fans and futaki (2,2), (1,3), (2,3), all Fano."""
    fans = [(name, load_bundled(name)) for name in BUNDLED]
    return fans + [
        (f"futaki_{a}_{b}", generate_futaki(a, b)) for a, b in ((2, 2), (1, 3), (2, 3))
    ]


def bundled_futaki_and_v4():
    """The 8 bundled fans, futaki (1,1) to (3,3) and V_4."""
    fans = [(name, load_bundled(name)) for name in BUNDLED]
    fans += [
        (f"futaki_{a}_{b}", generate_futaki(a, b)) for a in (1, 2, 3) for b in (1, 2, 3)
    ]
    return fans + [("V_4", Fan.from_rays(v_n_rays(4)))]


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
    assert elements_of(g, 2) == {identity(2), swap}


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
    # The closure of the generators passes the pairwise matrix oracle.
    for name, f in bundled_and_futaki():
        p = polytope_from_fan(f)
        for g in (polytope_automorphisms(p), aut0_subgroup(p), fan_automorphisms(f)):
            elements = elements_of(g, f.dim)
            assert pairwise_group_check(elements), name
            # The frame search keeps no determinant filter: an integral map
            # permuting a spanning set has finite order.
            assert all(det(e) in (1, -1) for e in elements), name


def test_group_check_rejects_non_groups():
    # The pairwise oracle rejects a group with one element left out, the
    # group without its identity, and Aut_0 P with one more element.
    for f in (load_bundled("p1xp1"), generate_futaki(2, 2)):
        p = polytope_from_fan(f)
        full = elements_of(polytope_automorphisms(p), f.dim)
        weyl = elements_of(aut0_subgroup(p), f.dim)
        ident = identity(f.dim)
        other = min(full - {ident})
        extra = min(full - weyl)
        for bad in (full - {other}, full - {ident}, weyl | {extra}):
            with pytest.raises(InvariantViolation):
                pairwise_group_check(bad)


def test_generators_close_to_all_lattice_maps():
    # Two routes to each group: the closure of the strong generators, and
    # the enumeration of every map; the order is the number of elements.
    # F_2, F_3, F_5 and P(1,1,3) are not Fano: only Aut Delta is searched.
    non_fano = [(f"F_{a}", hirzebruch(a)) for a in (2, 3, 5)]
    non_fano.append(("P113", Fan.make(2, [(1, 0), (0, 1), (-1, -3)], [(0, 1), (1, 2), (0, 2)])))
    assert not any(is_fano(f) for _, f in non_fano)
    for name, f in bundled_futaki_and_v4() + non_fano:
        groups = [(fan_automorphisms(f), aut_delta_maps(f))]
        if is_fano(f):
            p = polytope_from_fan(f)
            groups.append((polytope_automorphisms(p), aut_p_maps(p)))
        for g, maps in groups:
            elements = elements_of(g, f.dim)
            assert elements == set(maps), name
            assert g.order == len(elements), name
    assert polytope_automorphisms(polytope_from_fan(Fan.from_rays(v_n_rays(4)))).order == 240


def test_fan_aut_matches_polytope_aut():
    # The Fano paths search Aut P only, so the transpose identity is kept
    # checked here.
    for name, f in bundled_and_futaki():
        gf = fan_automorphisms(f)  # transpose duality asserted inside
        gp = polytope_automorphisms(polytope_from_fan(f))
        assert gf.order == gp.order, name
        assert {transpose(g) for g in elements_of(gf, f.dim)} == elements_of(gp, f.dim), name


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
    assert set(brute) == elements_of(g, 2)


def test_fixed_subspace_p2(p2_fan):
    g = polytope_automorphisms(polytope_from_fan(p2_fan)).generators
    assert fixed_subspace(g, 2) == ()


def test_fixed_subspace_dp1(dp1_fan):
    g = polytope_automorphisms(polytope_from_fan(dp1_fan)).generators
    assert fixed_subspace(g, 2) == ((1, 1),)


def test_fixed_subspace_trivial_group():
    assert fixed_subspace(TRIVIAL_GROUP.generators, 2) == identity(2)


def test_fixed_subspace_holds_the_barycenter():
    # Bc(P) is fixed by Aut P, so the group sum S has S.Bc = |G|.Bc; S/|G|
    # is a projection of trace dim V^G, the length of the kernel basis
    # from the generators.
    for name in BUNDLED:
        p = polytope_from_fan(load_bundled(name))
        _, bc = volume_and_barycenter(p)
        for g in (polytope_automorphisms(p), aut0_subgroup(p), TRIVIAL_GROUP):
            elements = elements_of(g, p.dim)
            s = [[sum(e[i][j] for e in elements) for j in range(p.dim)] for i in range(p.dim)]
            assert mat_vec(s, bc) == tuple(g.order * x for x in bc), name
            trace = sum(s[i][i] for i in range(p.dim))
            assert trace == g.order * len(fixed_subspace(g.generators, p.dim)), name


def test_alpha_closes_generators_inside_the_group(p1xp1_fan, dp2_fan):
    # H names the group it generates; every element must lie in Aut P.
    swap, minus = ((0, 1), (1, 0)), ((-1, 0), (0, -1))
    rotation = ((0, -1), (1, 0))
    assert alpha_invariant(p1xp1_fan, [swap]) == Fraction(1, 2)
    assert alpha_invariant(p1xp1_fan, [swap, minus]) == 1
    assert alpha_invariant(p1xp1_fan, [swap, rotation]) == alpha_invariant(p1xp1_fan)
    assert alpha_invariant(p1xp1_fan, []) == Fraction(1, 2)
    for bad in (((1, 1), (0, 1)), ((2, 0), (0, 1)), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValidationError):
            alpha_invariant(p1xp1_fan, [swap, bad])
    # The swap lies in Aut P of dp2 but the rotation of the square does not.
    assert alpha_invariant(dp2_fan, [[[0, 1], [1, 0]]]) == alpha_invariant(dp2_fan)
    with pytest.raises(ValidationError):
        alpha_invariant(dp2_fan, [rotation])


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
        for g in polytope_automorphisms(polytope_from_fan(f)).generators:
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
        assert elements_of(sub, 2) <= elements_of(full, 2)


def test_aut0_weyl_group_matches_facet_predicate():
    # Three routes to Aut_0 P: |W| from the ray blocks, the closure of the
    # root reflections, and the facet predicate tested on every element of
    # Aut P.
    fans = bundled_futaki_and_v4()
    for name, f in fans:
        p = polytope_from_fan(f)
        weyl = aut0_subgroup(p, root_data=roots(f))
        elements = elements_of(weyl, f.dim)
        assert elements == aut0_by_facet_predicate(p, roots(f)), name
        assert weyl.order == len(elements), name
    # V_4 has no roots, so W is trivial inside its Aut P of order 240.
    assert aut0_subgroup(polytope_from_fan(fans[-1][1])).order == 1


def test_aut0_raises_on_a_reflection_outside_aut_p(p1xp1_fan):
    # A broken invariant, not bad input: the theorem puts every root
    # reflection in Aut P.  This "root" of the square pairs -1, 2, 1, -2
    # with its rays: one -1 and one +1, but its reflection moves a third
    # ray off the ray set, and maps the vertex (1, 1) to (-1, 5).
    p = polytope_from_fan(p1xp1_fan)
    rays = symmetry.rays_of_reflexive(p)
    m = (-1, 2)
    assert sorted(dot(m, v) for v in rays) == [-2, -1, 1, 2]
    lo = [dot(m, v) for v in rays].index(-1)
    fake = RootData(roots=((m, lo),), semisimple=((m, lo),), unipotent=())
    with pytest.raises(InvariantViolation, match="reflection"):
        aut0_subgroup(p, root_data=fake)


def test_aut0_dp1_is_full_group(dp1_fan):
    p = polytope_from_fan(dp1_fan)
    assert aut0_subgroup(p).order == polytope_automorphisms(p).order


def test_fan_aut_fano52(fano52_fan):
    g = fan_automorphisms(fano52_fan)
    fixed = fixed_subspace([transpose(h) for h in g.generators], 3)
    assert len(fixed) == 1  # alpha < 1 comes from this one fixed line


def test_analyze_computes_aut0_once(monkeypatch):
    # The symmetry stage and demazure_report both ask for Aut_0 P; one
    # cached call serves both.
    calls = []
    rays = symmetry.rays_of_reflexive
    monkeypatch.setattr(symmetry, "rays_of_reflexive", lambda p: calls.append(p) or rays(p))
    aut0_subgroup.cache_clear()
    rep = analyze(generate_futaki(2, 2), name="futaki_2_2")
    assert len(calls) == 1
    assert rep["symmetry"]["aut0_p_order"] == rep["demazure"]["weyl_order"]
