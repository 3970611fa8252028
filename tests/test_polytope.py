import random
from fractions import Fraction
from itertools import product

import pytest

import helpers_volume
from helpers_groups import v_n_rays
from helpers_reflexive import random_unimodular
from helpers_slice import intersect_with_subspace, translate
from test_acceptance import Budget, _random_lattice_polytopes
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import UnboundedPolytopeError, ValidationError
from toricsym.families import futaki_rays
from toricsym.fan import Fan, is_complete, polytope_from_fan
from toricsym.linalg import dot, mat_vec
from toricsym.polytope import (
    HPolytope,
    contains,
    dilate,
    is_lattice_polytope,
    polytope_from_vertices,
    vertices_from_inequalities,
    volume_and_barycenter,
)

SQUARE = HPolytope.make(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
P2 = HPolytope.make(2, [((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)])


def vset(p):
    return set(p.vertices)


def fv(*coords):
    return tuple(Fraction(c) for c in coords)


def test_square_vertices():
    p = vertices_from_inequalities(SQUARE)
    assert vset(p) == {fv(1, 1), fv(1, -1), fv(-1, 1), fv(-1, -1)}


def test_p2_vertices():
    p = vertices_from_inequalities(P2)
    assert vset(p) == {fv(-1, 2), fv(-1, -1), fv(2, -1)}


def test_dp2_vertices(dp2_fan):
    p = polytope_from_fan(dp2_fan)
    assert vset(p) == {fv(1, -1), fv(1, 0), fv(0, 1), fv(-1, 1), fv(-1, -1)}


def test_unbounded_rejected():
    h = HPolytope.make(2, [((1, 0), 1), ((0, 1), 1)])
    with pytest.raises(UnboundedPolytopeError):
        vertices_from_inequalities(h)
    # A strip contains a line: its homogenised cone is not pointed.
    strip = HPolytope.make(2, [((1, 0), 1), ((-1, 0), 1)])
    with pytest.raises(UnboundedPolytopeError):
        vertices_from_inequalities(strip)


def test_redundant_inequality_dropped_and_reported():
    h = HPolytope.make(
        2,
        [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 5)],
    )
    p = vertices_from_inequalities(h)
    assert len(p.inequalities) == 4
    assert p.dropped_inequalities == (((1, 1), Fraction(5)),)


def test_volume_barycenter_cube():
    cube = HPolytope.make(
        3,
        [((s * (i == 0), s * (i == 1), s * (i == 2)), 1) for i in range(3) for s in (1, -1)],
    )
    p = vertices_from_inequalities(cube)
    vol, bc = volume_and_barycenter(p)
    assert vol == 8
    assert bc == fv(0, 0, 0)


def test_volume_barycenter_p2():
    # Split the triangle (-1,2),(-1,-1),(2,-1) along (-1,-1)-(2,2)... by
    # hand: shoelace gives area 9/2, and the barycenter of a triangle is
    # the vertex average, here 0.
    p = vertices_from_inequalities(P2)
    vol, bc = volume_and_barycenter(p)
    assert vol == Fraction(9, 2)
    assert bc == fv(0, 0)


def test_volume_barycenter_fano52(fano52_fan):
    p = polytope_from_fan(fano52_fan)
    vol, bc = volume_and_barycenter(p)
    assert vol == 6
    assert bc == (Fraction(5, 72), Fraction(-5, 72), Fraction(-5, 36))


def test_volume_invariant_under_unimodular_and_translation():
    rng = random.Random(11)
    p = vertices_from_inequalities(P2)
    vol0, bc0 = volume_and_barycenter(p)
    for _ in range(10):
        m = [[1, 0], [0, 1]]
        for _ in range(4):
            i, j = rng.sample(range(2), 2)
            c = rng.choice([-2, -1, 1, 2])
            for k in range(2):
                m[i][k] += c * m[j][k]
        mm = tuple(tuple(r) for r in m)
        t = (rng.randint(-3, 3), rng.randint(-3, 3))
        q = polytope_from_vertices(
            [tuple(x + dx for x, dx in zip(mat_vec(mm, v), t)) for v in p.vertices]
        )
        vol, bc = volume_and_barycenter(q)
        assert vol == vol0
        assert bc == tuple(x + dx for x, dx in zip(mat_vec(mm, bc0), t))


def test_volume_and_barycenter_match_the_triangulation():
    # vol(P) and Bc(P) come from the leading coefficients of E and S_i;
    # the pulling triangulation of `helpers_volume` is the oracle.  A
    # GL(n, Z) image AP keeps the volume and moves the barycenter to A Bc.
    rng = random.Random(21)
    criterion_4 = _random_lattice_polytopes(random.Random(20250801), 60)
    cases = [polytope_from_fan(load_bundled(name)) for name in BUNDLED]
    cases += [
        polytope_from_fan(Fan.from_rays(futaki_rays(a, b))) for a in (1, 2, 3) for b in (1, 2, 3, 4)
    ]
    cases += [polytope_from_fan(Fan.from_rays(v_n_rays(n))) for n in (4, 6)]
    cases += criterion_4
    cases += [
        polytope_from_vertices([[Fraction(x, 2) for x in v] for v in p.vertices])
        for p in criterion_4
    ]
    for p in cases:
        vol, bc = helpers_volume.volume_and_barycenter(p)
        assert volume_and_barycenter(p) == (vol, bc)
        a = random_unimodular(rng, size=8, n=p.dim)
        image = polytope_from_vertices([mat_vec(a, v) for v in p.vertices])
        assert volume_and_barycenter(image) == (vol, tuple(mat_vec(a, bc)))


def test_volume_independent_of_vertex_input_order():
    verts = [(2, -1), (-1, -1), (-1, 2)]
    rng = random.Random(3)
    results = set()
    for _ in range(6):
        rng.shuffle(verts)
        results.add(volume_and_barycenter(polytope_from_vertices(verts)))
    assert len(results) == 1


def test_centrally_symmetric_barycenter_vanishes():
    rng = random.Random(5)
    for _ in range(10):
        pts = set()
        while len(pts) < 6:
            v = (rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            if any(v):
                pts.add(v)
                pts.add(tuple(-x for x in v))
        try:
            p = polytope_from_vertices(sorted(pts))
        except ValidationError:
            continue
        _, bc = volume_and_barycenter(p)
        assert bc == fv(0, 0, 0)


def test_dilate():
    p = vertices_from_inequalities(SQUARE)
    q = dilate(p, 2)
    assert vset(q) == {fv(2, 2), fv(2, -2), fv(-2, 2), fv(-2, -2)}
    p2 = vertices_from_inequalities(P2)
    assert dilate(p2, 1).v == p2.v
    assert vset(dilate(p2, 3)) == {fv(-3, 6), fv(-3, -3), fv(6, -3)}
    with pytest.raises(ValidationError):
        dilate(p, 0)
    # Exact integers only: 2.0 would make float right-hand sides, and 1/2
    # is not a dilation by a positive integer.
    for k in (2.0, Fraction(1, 2)):
        with pytest.raises(ValidationError):
            dilate(p, k)


def test_dilate_volume_scales():
    for k in (2, 3, 5):
        p = vertices_from_inequalities(P2)
        vol, _ = volume_and_barycenter(p)
        vol_k, _ = volume_and_barycenter(dilate(p, k))
        assert vol_k == vol * k**2


def test_contains():
    p = vertices_from_inequalities(P2)
    assert contains(p, (0, 0), strict=True)
    assert contains(p, (2, -1)) and not contains(p, (2, -1), strict=True)
    assert not contains(p, (3, 0))
    with pytest.raises(ValidationError):
        contains(p, (1, 2, 3))


def test_roundtrip_h_to_v_to_h():
    for h in (SQUARE, P2):
        p = vertices_from_inequalities(h)
        q = polytope_from_vertices(p.vertices)
        assert vset(q) == vset(p)
        assert set(q.inequalities) == {
            (a, Fraction(r)) for a, r in p.inequalities
        }


def assert_incidence_is_tight(p):
    assert len(p.incidence) == len(p.inequalities)
    for (a, rhs), tight in zip(p.inequalities, p.incidence):
        assert tight == {i for i, v in enumerate(p.vertices) if dot(a, v) == rhs}


def test_incidence_marks_exactly_the_tight_vertices():
    # build_plan reads the vertices on each facet off p.incidence, so every
    # constructor must give exactly {j : a_i . v_j = b_i}.
    cases = [vertices_from_inequalities(h) for h in (SQUARE, P2)]
    # Non-vertex points: the cube's centre, edge midpoints and face centres.
    cube = list(product((-1, 1), repeat=3))
    cases.append(polytope_from_vertices(cube + [(0, 0, 0), (1, 1, 0), (0, -1, 1), (1, 0, 0)]))
    rng = random.Random(3)
    for n in (2, 3, 4):
        pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4 * n)]
        pts += [tuple(Fraction(x, 2) for x in p) for p in pts[:n]]
        cases.append(polytope_from_vertices(pts))
    # Dropped rows: one outside the square, one through a vertex alone and
    # a repeat, scaled by 2.
    redundant = HPolytope.make(
        2, list(SQUARE.inequalities) + [((1, 1), 5), ((1, 1), 2), ((2, 0), 2)]
    )
    q = vertices_from_inequalities(redundant)
    assert len(q.dropped_inequalities) == 3
    cases.append(q)
    # The face fan keeps its hull; the same fan with explicit cones builds
    # it in polytope_from_fan.  A ray inside an edge of conv(rays) is dropped.
    for rays in (futaki_rays(1, 2), v_n_rays(4)):
        face_fan = Fan.from_rays(rays)
        assert face_fan.hull is not None
        cases.append(polytope_from_fan(face_fan))
        cases.append(polytope_from_fan(Fan.make(face_fan.dim, face_fan.rays, face_fan.max_cones)))
    q = polytope_from_fan(Fan.make(2, [(1, 1), (-1, 1), (-1, -1), (1, -1), (1, 0)], ()))
    assert q.dropped_inequalities == (((-1, 0), 1),)
    cases.append(q)
    cases += [dilate(p, k) for p in cases[-2:] + cases[:2] for k in (2, 3)]
    for p in cases:
        assert_incidence_is_tight(p)


def test_slice_square_diagonal():
    p = vertices_from_inequalities(SQUARE)
    sl = intersect_with_subspace(p, [(1, 1)])
    assert set(sl.polytope.vertices) == {(Fraction(-1),), (Fraction(1),)}
    assert set(sl.ambient_vertices()) == {fv(-1, -1), fv(1, 1)}


def test_slice_dp2_diagonal(dp2_fan):
    # Intersecting the five facet inequalities with y = x by hand leaves
    # t <= 1, 2t <= 1, t >= -1: the segment [-1, 1/2].
    p = polytope_from_fan(dp2_fan)
    sl = intersect_with_subspace(p, [(1, 1)])
    assert set(sl.polytope.vertices) == {(Fraction(-1),), (Fraction(1, 2),)}


def test_slice_trivial_subspace():
    p = vertices_from_inequalities(P2)
    sl = intersect_with_subspace(p, [])
    assert sl.is_point and not sl.is_empty
    assert sl.ambient_vertices() == (fv(0, 0),)
    off = translate(p, (10, 10))
    sl2 = intersect_with_subspace(off, [])
    assert sl2.is_empty


def test_is_lattice_polytope(w112_fan):
    assert is_lattice_polytope(vertices_from_inequalities(P2))
    # The weighted plane P(1,1,2) is Gorenstein: its anticanonical
    # triangle has vertices (-1,-1), (-1,1), (3,-1), all integral.
    p112 = polytope_from_fan(w112_fan)
    assert vset(p112) == {fv(-1, -1), fv(-1, 1), fv(3, -1)}
    assert is_lattice_polytope(p112)
    half = polytope_from_vertices(
        [(0, 1), (0, -1), (Fraction(1, 2), 0), (Fraction(-1, 2), 0)]
    )
    assert not is_lattice_polytope(half)


def test_facet_slice_matches_incidence():
    p = vertices_from_inequalities(P2)
    for (a, rhs), tight in zip(p.inequalities, p.incidence):
        for i in tight:
            v = p.vertices[i]
            assert sum(x * y for x, y in zip(a, v)) == rhs


def test_six_cube_at_scale():
    # 64 vertices and 12 facets one way, 12 vertices and 64 facets the
    # other; a scan over the 6-subsets of 64 rows does not finish.
    cube = sorted(product((-1, 1), repeat=6))
    with Budget("6-cube hull, cross-polytope vertices, face fan completeness", 2.0):
        p = polytope_from_vertices(cube)
        q = vertices_from_inequalities(HPolytope.make(6, [(s, 1) for s in cube]))
        complete = is_complete(Fan.from_rays(cube))
    assert p.vertices == tuple(fv(*v) for v in cube)
    assert len(p.inequalities) == 12
    assert all(len(tight) == 32 for tight in p.incidence)
    assert len(q.vertices) == 12 and len(q.inequalities) == 64
    assert q.dropped_inequalities == ()
    assert complete


def test_fractional_normals_are_scaled_not_truncated():
    # int(3/2) would read the first row as x <= 1; scaled, it is 3x <= 2.
    h = HPolytope.make(2, [((Fraction(3, 2), 0), 1), ((0, "1/2"), "1/4")])
    assert h.inequalities == (((3, 0), Fraction(2)), ((0, 1), Fraction(1, 2)))
    box = HPolytope.make(2, list(h.inequalities) + [((-1, 0), 0), ((0, -1), 0)])
    assert vset(vertices_from_inequalities(box)) == {
        fv(0, 0), fv(Fraction(2, 3), 0), fv(0, Fraction(1, 2)), fv(Fraction(2, 3), Fraction(1, 2))
    }
    # Integer normals are kept as given, not made primitive.
    assert HPolytope.make(1, [((2,), 3)]).inequalities == (((2,), Fraction(3)),)


def test_floats_are_refused():
    p = vertices_from_inequalities(P2)
    for call in (
        lambda: polytope_from_vertices([(0, 0), (0.1, 0), (0, 1)]),
        lambda: contains(p, (0.5, 0)),
        lambda: HPolytope.make(2, [((1.5, 0), 1)]),
        lambda: HPolytope.make(2, [((1, 0), 0.5)]),
        lambda: polytope_from_vertices([(0, 0), ("a", 0), (0, 1)]),
        lambda: polytope_from_vertices([(0, 0), ("1/0", 0), (0, 1)]),
    ):
        with pytest.raises(ValidationError):
            call()


def test_exact_inputs_keep_their_meaning():
    # 0.1 as a float is 3602879701896397/36028797018963968; as a string or a
    # Fraction it is 1/10.
    tenth = Fraction(1, 10)
    for pts in (
        [(0, 0), (tenth, 0), (0, 1)],
        [(0, 0), ("1/10", 0), (0, 1)],
        [("0", "0"), ("0.1", 0), (0, Fraction(1))],
    ):
        p = polytope_from_vertices(pts)
        assert p.vertices == (fv(0, 0), fv(0, 1), (tenth, Fraction(0)))
        assert all(type(x) is Fraction for v in p.vertices for x in v)
        assert all(type(r) is Fraction for _, r in p.inequalities)
        assert volume_and_barycenter(p) == (Fraction(1, 20), (Fraction(1, 30), Fraction(1, 3)))
    q = vertices_from_inequalities(P2)
    assert contains(q, ("1/2", 0)) and contains(q, (Fraction(1, 2), 0)) and contains(q, (2, -1))


def test_points_that_do_not_span_are_rejected():
    for pts in (
        [(0, 0), (1, 1), (2, 2)],  # collinear
        [(1, 2), (1, 2), (1, 2)],  # one point, repeated
        [(3,), (3,)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (Fraction(1, 2), 2, 0)],  # planar
    ):
        with pytest.raises(ValidationError, match="^point set is not full-dimensional$"):
            polytope_from_vertices(pts)
    with pytest.raises(ValidationError, match="different dimensions"):
        polytope_from_vertices([(0, 0), (1, 0, 0), (0, 1)])
