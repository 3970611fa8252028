import random
from fractions import Fraction

import pytest

import toricsym.fan as fan_module
from helpers_hull import cone_contains
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import UnboundedPolytopeError, ValidationError
from toricsym.fan import (
    Fan,
    face_fan_from_polytope,
    is_complete,
    is_fano,
    is_simplicial,
    is_smooth,
    polytope_from_fan,
    validate_fan,
)
from toricsym.polytope import is_lattice_polytope, polytope_from_vertices
from toricsym.report import analyze

def test_validate_p2(p2_fan):
    assert validate_fan(p2_fan).ok


def test_validate_nonprimitive_ray():
    f = Fan.make(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    rep = validate_fan(f)
    assert not rep.ok
    assert any("primitive" in msg for msg in rep.problems)


def test_validate_overlapping_wedges():
    # cone((1,0),(0,1)) and cone((1,2),(2,1)) overlap without a common face.
    f = Fan.make(2, [(1, 0), (0, 1), (1, 2), (2, 1)], [(0, 1), (2, 3)])
    rep = validate_fan(f)
    assert not rep.ok
    assert any("common face" in msg for msg in rep.problems)


def test_validate_not_strongly_convex():
    f = Fan.make(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)])
    rep = validate_fan(f)
    assert not rep.ok
    assert any("strongly convex" in msg for msg in rep.problems)


def test_is_complete(p2_fan, dp3_fan):
    assert is_complete(p2_fan)
    assert is_complete(dp3_fan)
    single = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    assert not is_complete(single)


def test_is_complete_matches_ray_shooting(del_pezzo_fans, w112_fan):
    rng = random.Random(13)
    fans = list(del_pezzo_fans.values()) + [w112_fan]
    for f in fans:
        assert is_complete(f)
        cones = [[f.rays[i] for i in c] for c in f.max_cones]
        for _ in range(1000 // len(fans)):
            direction = (
                Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
            )
            assert any(cone_contains(c, f.dim, direction) for c in cones)


def test_simplicial_and_smooth(p2_fan, w112_fan):
    assert is_simplicial(p2_fan) and is_smooth(p2_fan)
    assert is_simplicial(w112_fan) and not is_smooth(w112_fan)
    nonsimp = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
        [(0, 1, 2, 3)],
    )
    assert not is_simplicial(nonsimp)


def test_is_smooth_without_a_rank_test():
    # Non-simplicial face fan: more rays in a cone than the dimension.
    cube = Fan.from_rays([(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    assert not is_simplicial(cube) and not is_smooth(cube)
    # Lower-dimensional cones: the Smith diagonal decides.
    assert not is_smooth(Fan.make(3, [(1, 0, 0), (1, 2, 0)], [(0, 1)]))
    assert is_smooth(Fan.make(3, [(1, 0, 0), (0, 1, 0)], [(0, 1)]))
    # Two rays of rank 1 in the plane: det 0.
    assert not is_smooth(Fan.make(2, [(1, 0), (-1, 0)], [(0, 1)]))


def test_polytope_from_fan_p2(p2_fan):
    p = polytope_from_fan(p2_fan)
    assert set(p.vertices) == {
        (Fraction(-1), Fraction(2)),
        (Fraction(-1), Fraction(-1)),
        (Fraction(2), Fraction(-1)),
    }


def test_polytope_from_fan_square(p1xp1_fan):
    p = polytope_from_fan(p1xp1_fan)
    assert set(p.vertices) == {
        (Fraction(sx), Fraction(sy)) for sx in (-1, 1) for sy in (-1, 1)
    }


def test_polytope_from_fan_fano52_inequalities(fano52_fan):
    # The eight anticanonical inequalities, normalized, are exactly
    # -1 <= x1 <= 1-x3, -1 <= x2 <= 1, -1 <= x3 <= 1, -1 <= x3-x2 <= 1.
    p = polytope_from_fan(fano52_fan)
    expected = {
        ((-1, 0, 0), 1),
        ((1, 0, 1), 1),
        ((0, -1, 0), 1),
        ((0, 1, 0), 1),
        ((0, 0, -1), 1),
        ((0, 0, 1), 1),
        ((0, 1, -1), 1),
        ((0, -1, 1), 1),
    }
    assert {(a, int(r)) for a, r in p.inequalities} == expected


def test_polytope_from_incomplete_fan_errors():
    single = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(UnboundedPolytopeError):
        polytope_from_fan(single)


def test_face_fan_square():
    f = face_fan_from_polytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert len(f.max_cones) == 4
    assert is_complete(f)


def test_face_fan_p2():
    f = face_fan_from_polytope([(1, 0), (0, 1), (-1, -1)])
    assert sorted(f.max_cones) == [(0, 1), (0, 2), (1, 2)]


def test_face_fan_hexagon(dp3_fan):
    assert len(dp3_fan.max_cones) == 6


def test_face_fan_needs_interior_origin():
    with pytest.raises(ValidationError):
        face_fan_from_polytope([(1, 0), (0, 1), (1, 1)])


P2_CONES = [(0, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize(
    "first", [(1.5, 0), (Fraction(3, 2), 0), (1.0, 0), ("3/2", 0), ("a", 0)]
)
def test_rays_must_be_integral(first):
    # A float or a fractional coordinate used to be truncated to the ray (1, 0).
    rays = [first, (0, 1), (-1, -1)]
    with pytest.raises(ValidationError):
        Fan.make(2, rays, P2_CONES)
    with pytest.raises(ValidationError):
        Fan.from_rays(rays)


def test_integral_rays_keep_working():
    p2 = Fan.from_rays([(1, 0), (0, 1), (-1, -1)])
    for rays in ([(Fraction(2, 2), 0), (0, Fraction(1)), (-1, -1)], [("1", 0), (0, 1), ("-1", -1)]):
        f = Fan.from_rays(rays)
        assert f == p2 and all(type(x) is int for r in f.rays for x in r)
        assert Fan.make(2, rays, P2_CONES).rays == p2.rays


def test_is_fano(p2_fan, dp1_fan):
    assert is_fano(p2_fan)
    assert is_fano(dp1_fan)


def test_is_fano_rejects_refinement():
    # Complete refinement with ray (1,2): the ray (0,1) is no longer a
    # hull vertex and the facet for (0,1) degenerates.
    f = Fan.make(
        2,
        [(1, 0), (1, 2), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
    )
    assert validate_fan(f).ok
    assert is_complete(f)
    assert not is_fano(f)


def test_is_fano_rejects_non_gorenstein():
    f = Fan.from_rays([(1, 0), (0, 1), (-1, -3)])
    assert is_complete(f) and is_simplicial(f)
    assert not is_fano(f)


def hull_is_fano(f):
    """The reflexivity test with the ray hull that `is_fano` dropped."""
    if not is_complete(f):
        return False
    if len(polytope_from_vertices(f.rays).vertices) != len(f.rays):
        return False
    p = polytope_from_fan(f)
    if p.dropped_inequalities or len(p.inequalities) != len(f.rays):
        return False
    return is_lattice_polytope(p)


def hirzebruch(a):
    return Fan.make(
        2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )


def times_p1(f):
    rays = [r + (0,) for r in f.rays] + [(0,) * f.dim + (1,), (0,) * f.dim + (-1,)]
    top, bottom = len(f.rays), len(f.rays) + 1
    cones = [c + (t,) for c in f.max_cones for t in (top, bottom)]
    return Fan.make(f.dim + 1, rays, cones)


def test_is_fano_matches_ray_hull_test():
    # By polar duality a ray is a vertex of conv(rays) exactly when its
    # anticanonical row is a facet, so the dropped rows decide the hull test.
    fans = {name: load_bundled(name) for name in BUNDLED}
    fans.update({f"F{a}": hirzebruch(a) for a in range(5)})
    fans["P(1,1,3)"] = Fan.from_rays([(1, 0), (0, 1), (-1, -3)])
    fans["F3xP1"] = times_p1(hirzebruch(3))
    fans["F2xP1"] = times_p1(hirzebruch(2))  # (0,1,0) lies on an edge
    fans["ray on an edge"] = Fan.make(
        2,
        [(1, 0), (1, 2), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
    )
    verdicts = {}
    for name, f in fans.items():
        assert validate_fan(f).ok, name
        verdicts[name] = is_fano(f)
        assert verdicts[name] == hull_is_fano(f), name
    assert verdicts["F0"] and verdicts["F1"] and verdicts["p2"]
    assert not any(verdicts[k] for k in ("F2", "F3", "F4", "F3xP1", "F2xP1"))
    assert not verdicts["P(1,1,3)"] and not verdicts["ray on an edge"]


def test_reflexive_duality_roundtrip(del_pezzo_fans, w112_fan):
    # Face fan of P's vertices, then the anticanonical construction,
    # applied twice, must reproduce the original vertex set.
    fans = dict(del_pezzo_fans)
    fans["w112"] = w112_fan
    for name, f in fans.items():
        p = polytope_from_fan(f)
        verts = tuple(tuple(int(x) for x in v) for v in p.vertices)
        dual = polytope_from_fan(face_fan_from_polytope(verts))
        dual_verts = tuple(tuple(int(x) for x in v) for v in dual.vertices)
        assert set(dual_verts) == set(f.rays), name
        back = polytope_from_fan(face_fan_from_polytope(dual_verts))
        assert set(back.vertices) == set(p.vertices), name


def test_smooth_complete_fans_have_unimodular_cones(p2_fan, dp3_fan):
    from toricsym.linalg import det

    for f in (p2_fan, dp3_fan):
        assert is_smooth(f)
        for cone in f.max_cones:
            assert det(tuple(f.rays[i] for i in cone)) in (1, -1)


def test_analyze_computes_cone_facets_once(monkeypatch):
    # is_complete and is_fano are cached: the stage guards of chain,
    # symmetry, stability and demazure reuse the first answer.
    calls = []
    facets = fan_module._full_dim_cone_facets
    monkeypatch.setattr(
        fan_module, "_full_dim_cone_facets", lambda f: calls.append(f) or facets(f)
    )
    is_complete.cache_clear()
    is_fano.cache_clear()
    analyze(load_bundled("futaki_1_2"))
    assert len(calls) == 1
