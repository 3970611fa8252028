import pytest

import helpers_linalg
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import ValidationError
from toricsym.families import generate_futaki
from toricsym.fan import Fan
from toricsym.demazure import (
    class_group,
    demazure_report,
    graded_dimension,
    root_automorphism,
    variable_classes,
)
from toricsym.latticecount import plan_points
from toricsym.linalg import vec_scale
from toricsym.symmetry import RootData, roots


def class_sizes(f):
    return tuple(sorted((len(m) for _, m in variable_classes(f)), reverse=True))


def enumerate_system(dim, rows):
    """Lattice points of {x : coeffs*x <= rhs}, by the Fourier-Motzkin oracle."""
    plan = helpers_linalg.build_plan(dim, [(a, rhs, 0) for a, rhs in rows])
    return tuple(plan_points(plan, 1))


def roots_oracle(f):
    """R(P) ray by ray: the points of {<m, v0> = -1, <m, v> >= 0 otherwise}."""
    out = []
    for idx, v0 in enumerate(f.rays):
        rows = [(v0, -1), (vec_scale(-1, v0), 1)]
        rows += [(vec_scale(-1, v), 0) for j, v in enumerate(f.rays) if j != idx]
        out += [(m, idx) for m in enumerate_system(f.dim, rows)]
    root_set = {m for m, _ in out}
    return RootData(
        roots=tuple(out),
        semisimple=tuple((m, i) for m, i in out if vec_scale(-1, m) in root_set),
        unipotent=tuple((m, i) for m, i in out if vec_scale(-1, m) not in root_set),
    )


def graded_dimension_oracle(f, members):
    """The counts of Q_v0 for each representative v0 of one class."""
    return {
        len(enumerate_system(f.dim, [
            (vec_scale(-1, v), 1 if j == v0 else 0) for j, v in enumerate(f.rays)
        ]))
        for v0 in members
    }


def hirzebruch(a):
    """F_a: rays (1,0), (0,1), (-1,a), (0,-1) around the plane."""
    return Fan.make(2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])


def hirzebruch_times_p1(a):
    rays = [r + (0,) for r in hirzebruch(a).rays] + [(0, 0, 1), (0, 0, -1)]
    return Fan.make(
        3, rays, [c + (z,) for c in hirzebruch(a).max_cones for z in (4, 5)]
    )


def test_roots_and_graded_dims_match_per_ray_oracle():
    fans = [load_bundled(name) for name in BUNDLED]
    fans += [generate_futaki(a, b) for a, b in ((1, 2), (2, 2), (1, 3), (2, 3))]
    fans.append(Fan.make(2, [(1, 0), (0, 1), (-1, -3)], [(0, 1), (1, 2), (0, 2)]))
    fans += [hirzebruch(a) for a in (2, 3, 4, 5)] + [hirzebruch_times_p1(3)]
    for f in fans:
        assert roots(f) == roots_oracle(f), f.rays
        for alpha, members in variable_classes(f):
            assert graded_dimension_oracle(f, members) == {graded_dimension(f, alpha)}


def test_hirzebruch_aut0_dimension():
    # dim Aut_0(F_a) = a + 5 for a >= 1 (Demazure): the anticanonical
    # polytope of F_a is rational for a >= 3.
    for a in (2, 3, 4, 5):
        assert demazure_report(hirzebruch(a)).dim_aut0 == a + 5


def test_class_group_p2(p2_fan):
    cg = class_group(p2_fan)
    assert cg.free_rank == 1 and cg.torsion == ()
    assert [d[0] for d in cg.degree_of] == [(1,), (1,), (1,)]


def test_class_group_p1xp1(p1xp1_fan):
    cg = class_group(p1xp1_fan)
    assert cg.free_rank == 2 and cg.torsion == ()
    degs = [d[0] for d in cg.degree_of]
    # Rays are ordered (1,0),(-1,0),(0,1),(0,-1): opposite rays share the
    # class, and the two classes are a basis.
    assert degs[0] == degs[1] and degs[2] == degs[3]
    assert set(degs) == {(1, 0), (0, 1)}


def test_class_group_weighted_112(w112_fan):
    cg = class_group(w112_fan)
    assert cg.free_rank == 1 and cg.torsion == ()
    assert [d[0] for d in cg.degree_of] == [(1,), (2,), (1,)]


def test_variable_classes_p2(p2_fan):
    assert class_sizes(p2_fan) == (3,)


def test_variable_classes_dp1(dp1_fan):
    # Strict transforms pair up; the exceptional curve and the remaining
    # line are alone in their classes.
    classes = variable_classes(dp1_fan)
    sizes = {tuple(sorted(members)): len(members) for _, members in classes}
    assert class_sizes(dp1_fan) == (2, 1, 1)
    assert sizes[(0, 1)] == 2  # rays (1,0) and (0,1)


def test_variable_classes_dp3(dp3_fan):
    assert class_sizes(dp3_fan) == (1, 1, 1, 1, 1, 1)


def test_graded_dimension_p2(p2_fan):
    classes = variable_classes(p2_fan)
    (alpha, members), = classes
    assert graded_dimension(p2_fan, alpha) == 3


def test_graded_dimension_dp1(dp1_fan):
    cg = class_group(dp1_fan)
    deg_x0 = cg.degree_of[2]  # ray (-1,-1)
    deg_y = cg.degree_of[3]  # ray (1,1)
    assert graded_dimension(dp1_fan, deg_x0) == 3
    assert graded_dimension(dp1_fan, deg_y) == 1


def test_graded_dimension_rejects_unused_class(p2_fan):
    with pytest.raises(ValidationError):
        graded_dimension(p2_fan, (((7,), ())))


def test_root_automorphism_dp1(dp1_fan):
    # Root (1,0) pairs with the ray (-1,-1) (variable x0) and its monomial
    # is x'_1 * y, i.e. exponent 1 on rays (1,0) and (1,1).
    v0, exps = root_automorphism(dp1_fan, (1, 0))
    assert dp1_fan.rays[v0] == (-1, -1)
    assert exps == (1, 0, 0, 1)


def test_root_automorphism_p2_transvections(p2_fan):
    # Each root of the plane yields a pair (x_i, x_j): a single unit
    # exponent, matching the six elementary one-parameter subgroups.
    rd = roots(p2_fan)
    for m, _ in rd.roots:
        v0, exps = root_automorphism(p2_fan, m)
        assert sorted(exps) == [0, 0, 1]
        assert exps[v0] == 0


def test_root_automorphism_semisimple_pairs_swap(p2_fan, dp1_fan):
    for f in (p2_fan, dp1_fan):
        rd = roots(f)
        for m, _ in rd.semisimple:
            neg = tuple(-x for x in m)
            v0, _ = root_automorphism(f, m)
            w0, _ = root_automorphism(f, neg)
            assert v0 != w0


def test_root_automorphism_rejects_non_root(p2_fan):
    with pytest.raises(ValidationError):
        root_automorphism(p2_fan, (2, 2))


def test_report_dp2(dp2_fan):
    rep = demazure_report(dp2_fan)
    assert rep.unipotent_dim == 2
    assert rep.gs_factor_sizes == (1, 1, 1, 1, 1)
    assert rep.dim_aut0 == 4
    assert not rep.is_reductive


def test_report_p1xp1(p1xp1_fan):
    rep = demazure_report(p1xp1_fan)
    assert rep.gs_factor_sizes == (2, 2)
    assert rep.is_reductive
    assert rep.weyl_order == 4
    assert rep.component_group_order == 2


def test_report_p2(p2_fan):
    rep = demazure_report(p2_fan)
    assert rep.dim_aut0 == 8
    assert rep.is_reductive
    assert rep.component_group_order == 1


def test_report_dp1_derived_gs(dp1_fan):
    # Class sizes force GL(2) x (C*)^2; dim Aut_0 X = 6 is only consistent
    # with that factorization.
    rep = demazure_report(dp1_fan)
    assert rep.gs_factor_sizes == (2, 1, 1)
    assert rep.dim_aut0 == 6
    assert rep.unipotent_dim == 2


def test_report_dimension_identity(del_pezzo_fans, w112_fan, fano52_fan):
    fans = dict(del_pezzo_fans)
    fans["w112"] = w112_fan
    fans["fano52"] = fano52_fan
    for name, f in fans.items():
        rep = demazure_report(f)
        rd = roots(f)
        assert rep.dim_aut0 == f.dim + len(rd.roots), name
        assert sum(rep.gs_factor_sizes) == len(f.rays), name


def test_report_weighted_112(w112_fan):
    rep = demazure_report(w112_fan)
    assert rep.dim_aut0 == 7  # both routes equal 2 + 5
    assert rep.gs_factor_sizes == (2, 1)
    assert not rep.is_reductive
    assert rep.unipotent_dim == 3
    # Not smooth: component data stays uncomputed.
    assert rep.weyl_order is None
    assert rep.component_group_order is None


def test_report_rejects_non_simplicial():
    f = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
        [(0, 1, 2, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    with pytest.raises(ValidationError):
        demazure_report(f)


def test_reductivity_matches_classification(del_pezzo_fans, fano52_fan):
    from toricsym.symmetry import classify_symmetry

    fans = list(del_pezzo_fans.values()) + [fano52_fan]
    for f in fans:
        rep = demazure_report(f)
        assert rep.is_reductive == classify_symmetry(f).centrally_lattice_symmetric
