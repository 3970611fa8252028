"""End-to-end acceptance suite.

Each criterion prints one PASS line (visible with -s or on failure) and
carries an explicit wall-clock budget.
"""

import random
import time
from fractions import Fraction

import pytest

import helpers_volume
from helpers_groups import elements_of, v_n_rays
from helpers_reflexive import (
    random_unimodular,
    reflexive_polygon_classes,
    transformed_fan,
)
from toricsym.chain import verify_implication_chain
from toricsym.datasets import load_bundled, nill_paffenholz
from toricsym.demazure import demazure_report
from toricsym.errors import ValidationError
from toricsym.families import generate_futaki
from toricsym.fan import Fan, is_complete, is_fano, is_smooth, polytope_from_fan
from toricsym.linalg import transpose
from toricsym.latticecount import (
    barycenter_rational_function,
    count_lattice_points,
    ehrhart_polynomial,
    plan_for_polytope,
    quantized_barycenter,
)
from toricsym.polytope import polytope_from_vertices, volume_and_barycenter
from toricsym.report import analyze
from toricsym.stability import alpha_invariant, delta_invariant, delta_k
from toricsym.symmetry import (
    aut0_subgroup,
    classify_symmetry,
    fan_automorphisms,
    polytope_automorphisms,
    roots,
)

ZERO2 = (Fraction(0), Fraction(0))


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL")
        return False


def test_criterion_1_p2_suite():
    with Budget("1 projective-plane suite", 1.0):
        fan = load_bundled("p2")
        p = polytope_from_fan(fan)
        assert {tuple(int(x) for x in v) for v in p.vertices} == {
            (-1, 2),
            (-1, -1),
            (2, -1),
        }
        assert fan_automorphisms(fan).order == 6
        assert roots(fan).root_set == {
            (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1),
        }
        cls = classify_symmetry(fan)
        assert (
            cls.centrally_symmetric,
            cls.bs_symmetric,
            cls.centrally_lattice_symmetric,
        ) == (False, True, True)
        for k in range(1, 6):
            assert quantized_barycenter(p, k) == ZERO2
            assert delta_k(fan, k) == 1
        assert delta_invariant(fan) == 1
        assert alpha_invariant(fan) == 1
        rep = demazure_report(fan)
        assert rep.dim_aut0 == 8
        assert rep.is_reductive


def test_criterion_2_del_pezzo_tables():
    with Budget("2 del Pezzo tables", 2.0):
        names = ("p2", "p1xp1", "dp3", "dp1", "dp2")
        fans = {n: load_bundled(n) for n in names}
        aut_orders = {n: fan_automorphisms(fans[n]).order for n in names}
        assert [aut_orders[n] for n in names] == [6, 8, 12, 2, 2]
        aut0_orders = {
            n: aut0_subgroup(polytope_from_fan(fans[n]), root_data=roots(fans[n])).order
            for n in names
        }
        assert [aut0_orders[n] for n in names] == [6, 4, 1, 2, 1]
        rd1 = roots(fans["dp1"])
        assert {m for m, _ in rd1.semisimple} == {(1, -1), (-1, 1)}
        assert {m for m, _ in rd1.unipotent} == {(1, 0), (0, 1)}
        rd2 = roots(fans["dp2"])
        assert {m for m, _ in rd2.semisimple} == set()
        assert {m for m, _ in rd2.unipotent} == {(-1, 0), (0, -1)}
        gs = {n: demazure_report(fans[n]).gs_factor_sizes for n in names}
        assert gs["p2"] == (3,)
        assert gs["p1xp1"] == (2, 2)
        assert gs["dp3"] == (1, 1, 1, 1, 1, 1)
        assert gs["dp1"] == (2, 1, 1)  # derived value GL(2) x (C*)^2
        assert gs["dp2"] == (1, 1, 1, 1, 1)
        unip = {n: demazure_report(fans[n]).unipotent_dim for n in names}
        assert [unip[n] for n in names] == [0, 0, 0, 2, 2]


def test_criterion_3_fano_threefold():
    with Budget("3 Fano threefold 5.2", 1.0):
        fan = load_bundled("fano3fold_5_2")
        p = polytope_from_fan(fan)
        assert {(a, int(r)) for a, r in p.inequalities} == {
            ((-1, 0, 0), 1), ((1, 0, 1), 1),
            ((0, -1, 0), 1), ((0, 1, 0), 1),
            ((0, 0, -1), 1), ((0, 0, 1), 1),
            ((0, 1, -1), 1), ((0, -1, 1), 1),
        }
        vol, bc = volume_and_barycenter(p)
        assert vol == 6
        assert bc == (Fraction(5, 72), Fraction(-5, 72), Fraction(-5, 36))
        assert roots(fan).root_set == {(1, 0, 0), (-1, 0, 0)}
        assert roots(fan).is_centrally_lattice_symmetric()
        assert bc != (Fraction(0),) * 3  # no Kaehler-Einstein metric
        assert alpha_invariant(fan) == Fraction(1, 2)
        delta = delta_invariant(fan)
        assert delta == Fraction(36, 41)
        # Independent cross-check by exhaustive pairing enumeration.
        pairings = [sum(b * x for b, x in zip(bc, v)) for v in fan.rays]
        assert min(Fraction(1) / (1 + q) for q in pairings) == delta


def _random_lattice_polytopes(rng, count, hull=polytope_from_vertices):
    """Vertex coordinates within [-4,4], dimensions 2-4 round robin.

    Every fifth polytope is centrally symmetrized so the vanishing branch
    of the rigidity check is actually exercised; the symmetric
    4-dimensional ones use a smaller coordinate range to keep their facet
    systems and the scans of their dilations small.  `hull` builds each
    polytope from its point set and raises ValidationError when the points
    are not full-dimensional.
    """
    out = []
    while len(out) < count:
        n = 2 + len(out) % 3
        npts = n + 1 + rng.randrange(2)
        symmetric = len(out) % 5 == 4
        box = 2 if (symmetric and n == 4) else 4
        pts = {tuple(rng.randint(-box, box) for _ in range(n)) for _ in range(npts)}
        if symmetric:
            pts = {tuple(-x for x in p) for p in pts} | pts
        try:
            p = hull(sorted(pts))
        except ValidationError:
            continue
        out.append(p)
    return out


def test_criterion_4_rigidity_suite():
    with Budget("4 rigidity property suite", 60.0):
        rng = random.Random(20250801)
        zero_branch = 0
        for p in _random_lattice_polytopes(rng, 200):
            n = p.dim
            vol, bc = volume_and_barycenter(p)
            assert (vol, bc) == helpers_volume.volume_and_barycenter(p)  # the triangulation
            poly = ehrhart_polynomial(p)
            assert poly.coefficients[0] == 1
            assert poly.coefficients[-1] == vol
            for k in (n + 1, n + 2):
                assert poly(k) == count_lattice_points(p, k)
            sampled = [quantized_barycenter(p, k) for k in range(1, n + 2)]
            if all(b == (Fraction(0),) * n for b in sampled):
                zero_branch += 1
                brf = barycenter_rational_function(p)
                assert brf.is_identically_zero()
                assert bc == (Fraction(0),) * n
        assert zero_branch >= 20  # the symmetric cases actually exercise (b)


def test_criterion_5_chain_verifier():
    with Budget("5 implication chain", 30.0):
        bundled = [
            load_bundled(n)
            for n in ("p2", "p1xp1", "dp1", "dp2", "dp3", "fano3fold_5_2",
                      "weighted_112", "futaki_1_2")
        ]
        reports = {}
        for fan in bundled:
            if not is_fano(fan):
                continue
            cr = verify_implication_chain(fan, k_budget=3)
            assert cr.consistent
            reports[id(fan)] = cr

        # dP1 and dP2: every node fails while the chain stays consistent,
        # so no implication can be reversed from the bottom.
        for name in ("dp1", "dp2"):
            cr = verify_implication_chain(load_bundled(name), k_budget=3)
            nd = dict(cr.nodes)
            assert not nd["bc_zero"] and not nd["lattice_symmetric"]
            assert cr.consistent
        # The threefold keeps the bottom of the chain true with Bc != 0:
        # the one-way implication bc_zero => lattice_symmetric is strict.
        cr52 = verify_implication_chain(load_bundled("fano3fold_5_2"), k_budget=4)
        nd52 = dict(cr52.nodes)
        assert nd52["lattice_symmetric"] and nd52["reductive"]
        assert not nd52["bc_zero"]
        assert cr52.consistent

        classes = reflexive_polygon_classes()
        assert len(classes) == 16
        rng = random.Random(1600)
        for i in range(100):
            base = classes[rng.randrange(len(classes))]
            fan = transformed_fan(base, random_unimodular(rng, size=5))
            cr = verify_implication_chain(fan, k_budget=3)
            assert cr.consistent, f"violation on random reflexive polygon {i}"


def test_criterion_6_external_seven_folds():
    data = nill_paffenholz()
    if not data:
        pytest.skip(
            "ACCEPTANCE 6 external data: SKIPPED - no fan files in the "
            "np_data slot; drop np_7fold.fan / np_8fold.fan there to "
            "activate the quantized-barycenter regressions"
        )
    with Budget("6 external seven-folds", 600.0):
        direction7 = (-1, -1, -1, 1, 1, 1, 2)
        direction8 = (-1, -1, -1, 1, 1, 1, 1, 2)
        expected = {
            "np_7fold": {
                1: Fraction(16, 2257),
                2: Fraction(60, 27121),
                3: Fraction(2744, 2579721),
            },
            "np_8fold": {
                1: Fraction(32, 5459),
                2: Fraction(580, 321787),
            },
        }
        for name, fan in data.items():
            if name not in expected:
                continue
            direction = direction7 if fan.dim == 7 else direction8
            p = polytope_from_fan(fan)
            for k, coeff in expected[name].items():
                bc = quantized_barycenter(p, k)
                assert bc == tuple(coeff * d for d in direction), (name, k)
            _, bc_cont = volume_and_barycenter(p)
            assert bc_cont == (Fraction(0),) * fan.dim, name


def test_criterion_7_dimension_identity():
    with Budget("7 dimension identity", 1.0):
        names = ("p2", "p1xp1", "dp1", "dp2", "dp3", "fano3fold_5_2",
                 "weighted_112", "futaki_1_2")
        for name in names:
            fan = load_bundled(name)
            rep = demazure_report(fan)
            assert rep.dim_aut0 == fan.dim + len(roots(fan).roots), name
        w = load_bundled("weighted_112")
        rep = demazure_report(w)
        assert rep.dim_aut0 == 7
        assert w.dim + len(roots(w).roots) == 7


def test_criterion_8_futaki_family():
    with Budget("8 blow-up family", 10.0):
        for n1, n2 in ((1, 2), (2, 2), (1, 3)):
            fan = generate_futaki(n1, n2)
            assert is_complete(fan) and is_smooth(fan) and is_fano(fan)
            assert roots(fan).is_centrally_lattice_symmetric()
            p = polytope_from_fan(fan)
            _, bc = volume_and_barycenter(p)
            zero = (Fraction(0),) * fan.dim
            assert (bc == zero) == (n1 == n2), (n1, n2)


def _clear_caches():
    for fn in (polytope_from_fan, volume_and_barycenter, plan_for_polytope, is_complete,
               is_fano, polytope_automorphisms, fan_automorphisms, roots, aut0_subgroup):
        fn.cache_clear()


def test_dim7_automorphism_groups():
    # futaki(3,3), dimension 7: the three groups by the stabilizer-chain
    # search and the Weyl blocks.  The caches are cleared so that the
    # budget times the searches, not earlier tests.
    fan = generate_futaki(3, 3)
    p = polytope_from_fan(fan)
    rd = roots(fan)
    polytope_automorphisms.cache_clear()
    fan_automorphisms.cache_clear()
    aut0_subgroup.cache_clear()
    with Budget("dim-7 Aut P, Aut Delta and Aut_0 P", 4.0):
        aut_p = polytope_automorphisms(p)
        aut_delta = fan_automorphisms(fan)
        aut0 = aut0_subgroup(p, root_data=rd)
    assert aut_p.order == aut_delta.order == 1152
    assert {transpose(g) for g in elements_of(aut_delta, 7)} == elements_of(aut_p, 7)
    assert aut0.order == 576
    with Budget("dim-7 structure report", 1.0):
        rep = demazure_report(fan)
    assert (rep.weyl_order, rep.component_group_order) == (576, 2)


def test_dim8_roots_and_structure_report():
    # futaki(1,6), dimension 8, from cold caches: one pass over P's points
    # for the roots, and the grading read off them.
    fan = generate_futaki(1, 6)
    _clear_caches()
    with Budget("dim-8 roots and structure report", 0.4):
        rd = roots(fan)
        rep = demazure_report(fan)
    assert rep.dim_aut0 == fan.dim + len(rd.roots)
    assert (rep.weyl_order, rep.component_group_order) == (10080, 1)


def test_dim7_analyze():
    # futaki(3,3) end to end, from cold caches.  Its scans memoize by
    # residual state; the volume, the Ehrhart polynomial and the chain's
    # zero branch all read the closed form at the nodes +-1..+-4 and 5.
    _clear_caches()
    with Budget("dim-7 analyze", 6.0):
        rep = analyze(generate_futaki(3, 3), name="futaki_3_3")
    assert (rep["symmetry"]["aut_p_order"], rep["symmetry"]["aut0_p_order"]) == (1152, 576)
    assert rep["polytope"]["barycenter"] == ["0"] * 7
    nodes = rep["chain"]["nodes"]
    for name in ("bck_zero_all_k", "bck_zero_large_k", "bck_zero_n_plus_1", "bc_zero"):
        assert nodes[name] is True, name
    assert rep["chain"]["consistent"]
    coefficients = [Fraction(c) for c in rep["ehrhart"]["coefficients"]]
    assert sum(c * 3 ** i for i, c in enumerate(coefficients)) == 1_362_705


def test_dim6_v6_symmetry():
    # V_6: 140 vertices and |Aut P| = 2 * 7!, with no roots, from cold caches.
    fan = Fan.from_rays(v_n_rays(6))
    _clear_caches()
    with Budget("dim-6 V_6 Aut P, Aut_0 P, classification and alpha", 1.0):
        p = polytope_from_fan(fan)
        aut_p = polytope_automorphisms(p)
        aut0 = aut0_subgroup(p)
        cls = classify_symmetry(fan)
        alpha = alpha_invariant(fan)
    assert (aut_p.order, aut0.order) == (10080, 1)
    assert (cls.fixed_space_dimension, alpha) == (0, 1)


def test_dim8_futaki_1_6_groups():
    # futaki(1,6): Aut P is the Weyl group S_7 x S_2 of its roots, so the
    # component group is trivial.
    fan = generate_futaki(1, 6)
    _clear_caches()
    with Budget("dim-8 futaki(1,6) Aut P and structure report", 4.0):
        aut_p = polytope_automorphisms(polytope_from_fan(fan))
        rep = demazure_report(fan)
    assert aut_p.order == rep.weyl_order == 10080
    assert rep.component_group_order == 1


def test_dim8_v8_polytope_from_rays():
    # V_8 from its 18 rays: one double description, for the hull of the
    # rays (630 facets), and P read off it as the polar.  31-53 ms here.
    _clear_caches()
    with Budget("dim-8 V_8 face fan and anticanonical polytope", 0.08):
        p = polytope_from_fan(Fan.from_rays(v_n_rays(8)))
    assert (len(p.vertices), len(p.inequalities), p.dropped_inequalities) == (630, 18, ())


def test_dim8_v8_symmetry():
    # V_8: 630 vertices and |Aut P| = 2 * 9!.  Its volume is not computed.
    fan = Fan.from_rays(v_n_rays(8))
    _clear_caches()
    with Budget("dim-8 V_8 Aut P, Aut_0 P, classification and alpha", 4.0):
        p = polytope_from_fan(fan)
        aut_p = polytope_automorphisms(p)
        aut0 = aut0_subgroup(p)
        cls = classify_symmetry(fan)
        alpha = alpha_invariant(fan)
    assert (aut_p.order, aut0.order) == (725_760, 1)
    assert (cls.fixed_space_dimension, alpha) == (0, 1)


def test_dim8_v8_analyze():
    # V_8 end to end, from cold caches.  The volume is the leading
    # coefficient of E, which the closed form interpolates from the nodes
    # +-1..+-5 of a memoized plan.  A triangulation of V_8 has 156,190
    # simplices: with it `analyze` took 4.1-4.4 s of CPU, without it
    # 0.51-0.63 s (2-core Xeon, Python 3.11).
    _clear_caches()
    with Budget("dim-8 V_8 analyze", 3.0):
        rep = analyze(Fan.from_rays(v_n_rays(8)), name="v_8")
    assert rep["symmetry"]["aut_p_order"] == 725_760
    assert rep["polytope"]["volume"] == "259723/2240"
    assert rep["polytope"]["barycenter"] == ["0"] * 8
    assert rep["chain"]["consistent"]
    coefficients = [Fraction(c) for c in rep["ehrhart"]["coefficients"]]
    assert [sum(c * k ** i for i, c in enumerate(coefficients)) for k in (1, 2)] == [3139, 180_325]
