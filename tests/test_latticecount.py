import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

import helpers_ehrhart
import helpers_linalg
from helpers_groups import v_n_rays
from helpers_reflexive import random_unimodular
from test_acceptance import _random_lattice_polytopes
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import (
    NonLatticePolytopeError,
    UnboundedPolytopeError,
    ValidationError,
)
from toricsym.families import generate_futaki
from toricsym.fan import Fan, polytope_from_fan
from toricsym.latticecount import (
    _evaluate,
    barycenter_rational_function,
    build_plan,
    coordinate_order,
    count_lattice_points,
    ehrhart_polynomial,
    enumerate_lattice_points,
    plan_count_and_sum,
    plan_for_polytope,
    quantized_barycenter,
    rigidity_verdict,
)
from toricsym.linalg import mat_vec
from toricsym.polytope import (
    contains,
    dilate,
    polytope_from_vertices,
    volume_and_barycenter,
)
from toricsym.symmetry import polytope_automorphisms


def box_oracle(p, k=1):
    """Independent enumeration: scan the bounding box and filter."""
    q = dilate(p, k) if k > 1 else p
    los = [min(v[i] for v in q.vertices) for i in range(q.dim)]
    his = [max(v[i] for v in q.vertices) for i in range(q.dim)]
    out = []
    for pt in product(*[range(int(-(-lo // 1)), int(hi // 1) + 1) for lo, hi in zip(los, his)]):
        if contains(q, pt):
            out.append(pt)
    return sorted(out)


def lifted_numerators(p):
    """Barycenter numerators from counts alone, as an independent oracle.

    For each coordinate i, lift P to P_i = {(u, h) : u in P,
    0 <= h <= u_i + C_i} in dimension n+1, with C_i the least nonnegative
    integer that makes the height nonnegative on P.  The counting
    polynomial of P_i is S_i(k) + (C_i k + 1) E(k), so interpolating it and
    subtracting (C_i k + 1) E(k) gives S_i, whose constant term is 0.
    """
    n = p.dim
    e = ehrhart_polynomial(p).coefficients
    out = []
    for i in range(n):
        c_i = max(0, int(-min(v[i] for v in p.vertices)))
        rows = [(tuple(a) + (0,), 0, rhs) for a, rhs in p.inequalities]
        rows.append(((0,) * n + (-1,), 0, 0))  # h >= 0
        rows.append((tuple(-1 if j == i else 0 for j in range(n)) + (1,), 0, c_i))
        lifted = helpers_linalg.build_plan(n + 1, rows)
        q = list(helpers_ehrhart.interpolate(
            [(k, plan_count_and_sum(lifted, k)[0] if k else 1) for k in range(n + 2)]
        ))
        for d, c in enumerate(e):
            q[d] -= c
            q[d + 1] -= c_i * c
        assert q[0] == 0
        out.append(tuple(q[1:]))
    return tuple(out)


def test_enumerate_square():
    p = polytope_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    pts = enumerate_lattice_points(p)
    assert len(pts) == 9
    assert pts == tuple(sorted(pts))


def test_enumerate_p2_matches_box_oracle(p2_fan):
    p = polytope_from_fan(p2_fan)
    pts = enumerate_lattice_points(p)
    assert list(pts) == box_oracle(p)
    assert len(pts) == 10


def test_enumerate_hexagon(dp3_fan):
    p = polytope_from_fan(dp3_fan)
    pts = enumerate_lattice_points(p)
    assert len(pts) == 7
    assert (0, 0) in pts


def test_enumeration_agrees_with_box_oracle_randomized():
    rng = random.Random(424242)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        pts = {tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n + 2)}
        try:
            p = polytope_from_vertices(sorted(pts))
        except ValidationError:
            continue
        done += 1
        assert list(enumerate_lattice_points(p)) == box_oracle(p)


def test_quantized_barycenter_p2(p2_fan):
    p = polytope_from_fan(p2_fan)
    assert quantized_barycenter(p, 1) == (Fraction(0), Fraction(0))


def test_quantized_barycenter_dp1(dp1_fan):
    # Hand count: the 9 points of P sum to (1, 1).
    p = polytope_from_fan(dp1_fan)
    pts = enumerate_lattice_points(p)
    assert len(pts) == 9
    sums = tuple(sum(x[i] for x in pts) for i in range(2))
    assert sums == (1, 1)
    bc1 = quantized_barycenter(p, 1)
    assert bc1 == (Fraction(1, 9), Fraction(1, 9))
    assert bc1[0] == bc1[1]  # pinned to the diagonal by the symmetry


def test_dilation_factor_must_be_meaningful(dp1_fan):
    # Bc_k needs k >= 1; #(kP cap M) is defined for k >= 0, with 0P = {0}.
    p = polytope_from_fan(dp1_fan)
    for k in (0, -1):
        with pytest.raises(ValidationError):
            quantized_barycenter(p, k)
    for k in (-1, -3):
        with pytest.raises(ValidationError):
            count_lattice_points(p, k)
    assert count_lattice_points(p, 0) == 1


def test_dilation_factor_must_be_an_integer():
    # A float k, even 2.0, is refused before it reaches the plan's scans,
    # where it would be a key and an interpolation node.
    p = polytope_from_fan(generate_futaki(1, 1))
    plan_for_polytope.cache_clear()
    for k in (2.0, 1.5, Fraction(2), "2"):
        with pytest.raises(ValidationError, match="integer"):
            count_lattice_points(p, k)
        with pytest.raises(ValidationError, match="integer"):
            quantized_barycenter(p, k)
        with pytest.raises(ValidationError, match="integer"):
            rigidity_verdict(p, [1, 2, 3, k])
    assert plan_for_polytope(p).scans == {}
    count = count_lattice_points(p, 2)
    assert count == 115 and type(count) is int
    assert ehrhart_polynomial(p)(2) == 115
    assert all(type(k) is int for k in plan_for_polytope(p).scans)


def test_quantized_barycenter_equivariance(del_pezzo_fans):
    for f in del_pezzo_fans.values():
        p = polytope_from_fan(f)
        aut = polytope_automorphisms(p).generators
        for k in (1, 2, 3):
            bc = quantized_barycenter(p, k)
            for g in aut:
                assert tuple(mat_vec(g, bc)) == bc


def test_ehrhart_segment():
    seg = polytope_from_vertices([(-1,), (1,)])
    poly = ehrhart_polynomial(seg)
    assert poly.coefficients == (Fraction(1), Fraction(2))


def test_ehrhart_p2(p2_fan):
    p = polytope_from_fan(p2_fan)
    poly = ehrhart_polynomial(p)
    assert poly.coefficients == (Fraction(1), Fraction(9, 2), Fraction(9, 2))
    assert poly(1) == 10


def test_ehrhart_fano52_leading_coefficient(fano52_fan):
    p = polytope_from_fan(fano52_fan)
    poly = ehrhart_polynomial(p)
    assert poly.coefficients[-1] == 6


def test_ehrhart_out_of_sample(del_pezzo_fans, fano52_fan):
    fans = list(del_pezzo_fans.values()) + [fano52_fan]
    for f in fans:
        p = polytope_from_fan(f)
        poly = ehrhart_polynomial(p)
        n = p.dim
        for k in (n + 1, n + 2):
            assert poly(k) == count_lattice_points(p, k)


def test_ehrhart_rejects_rational_polytope():
    half = polytope_from_vertices(
        [(0, 1), (0, -1), (Fraction(1, 2), 0), (Fraction(-1, 2), 0)]
    )
    with pytest.raises(NonLatticePolytopeError):
        ehrhart_polynomial(half)


def test_rational_function_segment():
    seg = polytope_from_vertices([(-1,), (1,)])
    brf = barycenter_rational_function(seg)
    assert brf.is_identically_zero()


def test_rational_function_dp1(dp1_fan):
    p = polytope_from_fan(dp1_fan)
    brf = barycenter_rational_function(p)
    assert brf.barycenter_at(1) == (Fraction(1, 9), Fraction(1, 9))
    for k in (2, 3, 4):
        assert brf.barycenter_at(k) == quantized_barycenter(p, k)


def test_rational_function_p2(p2_fan):
    p = polytope_from_fan(p2_fan)
    brf = barycenter_rational_function(p)
    assert brf.is_identically_zero()


def test_numerator_shape(dp1_fan, dp2_fan):
    # The numerators are Q/k for a Q with zero constant term (asserted at
    # construction), so each has exactly n+1 stored coefficients.
    for f in (dp1_fan, dp2_fan):
        p = polytope_from_fan(f)
        brf = barycenter_rational_function(p)
        for coeffs in brf.numerators:
            assert len(coeffs) == p.dim + 1


def test_numerators_match_lifted_oracle(dp1_fan, dp2_fan, fano52_fan):
    for f in (dp1_fan, dp2_fan, fano52_fan):
        p = polytope_from_fan(f)
        assert barycenter_rational_function(p).numerators == lifted_numerators(p)


def test_numerators_match_lifted_oracle_zero_branch():
    # The zero-branch polytopes among the first 20 of criterion 4, among
    # them a centrally symmetric 4-polytope with 12 vertices.
    zero_branch = []
    for p in _random_lattice_polytopes(random.Random(20250801), 20):
        n = p.dim
        if all(quantized_barycenter(p, k) == (0,) * n for k in range(1, n + 2)):
            zero_branch.append(p)
    assert sorted(len(p.vertices) for p in zero_branch if p.dim == 4) == [12]
    assert len(zero_branch) == 4
    for p in zero_branch:
        brf = barycenter_rational_function(p)
        assert brf.is_identically_zero()
        assert brf.numerators == lifted_numerators(p)


def coordinate_sums(brf, k):
    """S_i(k) = k E(k) Bc_{k,i}, evaluated from the closed form at any k."""
    return tuple(k * brf.ehrhart(k) * b for b in brf.barycenter_at(k))


def test_reciprocity_for_reflexive_polytopes(dp1_fan, fano52_fan):
    # Ehrhart-Macdonald for reflexive P: int((k+1)P) and kP have the same
    # lattice points, so E(-k-1) = (-1)^n E(k) and S_i(-k-1) = (-1)^(n+1)
    # S_i(k) for the coordinate sums S_i(k) = k E(k) Bc_{k,i}.
    for f in (dp1_fan, fano52_fan, load_bundled("futaki_1_2")):
        p = polytope_from_fan(f)
        n = p.dim
        brf = barycenter_rational_function(p)
        for k in range(4):
            assert brf.ehrhart(-k - 1) == (-1) ** n * brf.ehrhart(k)
            s_k, s_neg = coordinate_sums(brf, k), coordinate_sums(brf, -k - 1)
            assert s_neg == tuple((-1) ** (n + 1) * s for s in s_k)


@lru_cache(maxsize=None)
def interior_box_scan(p, k):
    """(#, coordinate sums) of int(kP) cap M by a scan of the inside of kP's box, for a lattice P."""
    q = dilate(p, k)
    box = [
        range(int(min(v[i] for v in q.vertices)) + 1, int(max(v[i] for v in q.vertices)))
        for i in range(q.dim)
    ]
    points = [x for x in product(*box) if contains(q, x, strict=True)]
    return len(points), tuple(sum(x[i] for x in points) for i in range(q.dim))


@lru_cache(maxsize=None)
def reciprocity_polytopes():
    """The 8 bundled polytopes and the first 20 criterion-4 polytopes."""
    polytopes = [polytope_from_fan(load_bundled(name)) for name in BUNDLED]
    return tuple(polytopes + _random_lattice_polytopes(random.Random(20250801), 20))


def test_ehrhart_macdonald_reciprocity():
    # (-1)^n E(-k) counts the lattice points interior to kP.
    for p in reciprocity_polytopes():
        e = ehrhart_polynomial(p)
        for k in (1, 2):
            assert (-1) ** p.dim * e(-k) == interior_box_scan(p, k)[0]


def test_weighted_ehrhart_macdonald_reciprocity():
    # (-1)^(n+1) S_i(-k) sums x_i over the lattice points interior to kP
    # (Brion-Vergne), with E and S_i(k) = k * numerator_i(k) taken from
    # scans of kP at k = 1..n+2 alone, so no interior scan is involved.
    for p in reciprocity_polytopes():
        n = p.dim
        e, numerators = helpers_ehrhart.polynomials(p)
        for k in (1, 2):
            count, sums = interior_box_scan(p, k)
            assert (-1) ** n * _evaluate(e, -k) == count
            assert tuple((-1) ** (n + 1) * -k * _evaluate(q, -k) for q in numerators) == sums


def test_interior_scan_matches_box_oracle():
    for p in reciprocity_polytopes():
        plan = build_plan(p)
        for k in (1, 2):
            assert plan_count_and_sum(plan, k, interior=True) == interior_box_scan(p, k)


def negated(p):
    return polytope_from_vertices([tuple(-x for x in v) for v in p.vertices])


def unimodular_image(p, seed):
    m = random_unimodular(random.Random(seed), size=3 * p.dim, n=p.dim)
    return polytope_from_vertices([mat_vec(m, v) for v in p.vertices])


def k_scan_route_cases(family):
    if family == "bundled":
        bundled = [polytope_from_fan(load_bundled(name)) for name in BUNDLED]
        return bundled + [negated(p) for p in bundled] + [
            unimodular_image(p, seed) for seed, p in enumerate(bundled)
        ]
    if family == "criterion-4":
        return _random_lattice_polytopes(random.Random(20250801), 60)
    futaki = [generate_futaki(a, b) for a, b in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3))]
    return [polytope_from_fan(f) for f in futaki + [Fan.from_rays(v_n_rays(n)) for n in (4, 6)]]


@pytest.mark.parametrize("family", ["bundled", "criterion-4", "futaki and V_n"])
def test_polynomials_match_the_k_scan_route(family):
    # The nodes +-1, +-2, ..., read off interior scans or, for a reflexive
    # P, off the scans of (k-1)P, give the polynomials that scans of kP at
    # k = 1..n+2 give, from cold plans and with the futaki bundles and V_n
    # on memoized plans.
    plan_for_polytope.cache_clear()
    for p in k_scan_route_cases(family):
        e, numerators = helpers_ehrhart.polynomials(p)
        assert ehrhart_polynomial(p).coefficients == e
        brf = barycenter_rational_function(p)
        assert brf.ehrhart.coefficients == e
        assert brf.numerators == numerators


def test_negated_polytope_negates_numerators(dp1_fan, dp2_fan, fano52_fan):
    # Bc(-P) = -Bc(P) for every k, so the numerators change sign and the
    # Ehrhart polynomial is unchanged.
    for f in (dp1_fan, dp2_fan, fano52_fan):
        p = polytope_from_fan(f)
        neg = polytope_from_vertices([tuple(-x for x in v) for v in p.vertices])
        brf, brf_neg = barycenter_rational_function(p), barycenter_rational_function(neg)
        assert not brf.is_identically_zero()
        assert brf_neg.ehrhart == brf.ehrhart
        assert brf_neg.numerators == tuple(
            tuple(-c for c in coeffs) for coeffs in brf.numerators
        )


# A bounded 4-simplex on which Fourier-Motzkin with Imbert's rule drops
# every row of one sign on x_0.
IMBERT_SIMPLEX = (
    (-1, -2, -4, -4), (1, -3, 0, 1), (3, -4, 0, 3), (4, -4, 0, 2), (4, -4, 2, -4)
)


def test_plan_for_bounded_system_imbert_drops():
    # The plan's levels are projections of the simplex, which are bounded.
    p = polytope_from_vertices(IMBERT_SIMPLEX)
    assert count_lattice_points(p, 1) == 6
    assert list(enumerate_lattice_points(p)) == box_oracle(p)
    poly = ehrhart_polynomial(p)  # checked at a further node
    assert poly(2) == len(box_oracle(p, 2))


def fourier_motzkin_plan(p):
    """P's plan by the Fraction Fourier-Motzkin oracle, in P's scan order."""
    order = coordinate_order(p)
    rows = [(tuple(a[i] for i in order), 0, rhs) for a, rhs in p.inequalities]
    return helpers_linalg.build_plan(p.dim, rows, order)


def test_plan_matches_fourier_motzkin_oracle():
    # Each polytope with the largest dilation compared; None means n+2.
    cases = [(polytope_from_fan(load_bundled(name)), None) for name in BUNDLED]
    cases.append((polytope_from_fan(generate_futaki(2, 2)), None))
    cases.append((polytope_from_fan(generate_futaki(3, 3)), 2))
    lattice = _random_lattice_polytopes(random.Random(20250801), 60)
    cases += [(p, None) for p in lattice]
    # Halved, so that facets of P and of its projections have fractional
    # right-hand sides.
    cases += [
        (polytope_from_vertices([tuple(x / 2 for x in v) for v in p.vertices]), None)
        for p in lattice[:6]
    ]
    for p, k_max in cases:
        plan, expected = build_plan(p), fourier_motzkin_plan(p)
        for k in range((p.dim + 2 if k_max is None else k_max) + 1):
            assert plan_count_and_sum(plan, k) == plan_count_and_sum(expected, k)

    simplex = polytope_from_vertices(IMBERT_SIMPLEX)
    with pytest.raises(UnboundedPolytopeError):
        fourier_motzkin_plan(simplex)
    plan = build_plan(simplex)
    for k in (1, 2):
        points = box_oracle(simplex, k)
        sums = tuple(sum(x[i] for x in points) for i in range(4))
        assert plan_count_and_sum(plan, k) == (len(points), sums)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_product_multiplies_ehrhart_and_sums(p2_fan, dp3_fan, dp1_fan, fano52_fan):
    # The points of k(P x Q) are pairs of points of kP and kQ, so
    # E_{PxQ} = E_P E_Q, and the sums over k(P x Q) are S_P E_Q on P's
    # coordinates and S_Q E_P on Q's.
    segment = polytope_from_vertices([(-1,), (2,)])
    triangle = polytope_from_vertices([(0, 0), (3, 1), (1, 2)])
    cases = [
        (polytope_from_fan(p2_fan), polytope_from_fan(dp3_fan)),
        (polytope_from_fan(dp1_fan), segment),
        (triangle, triangle),
        (polytope_from_fan(fano52_fan), segment),
    ]
    for p, q in cases:
        pq = polytope_from_vertices([u + v for u in p.vertices for v in q.vertices])
        e_p, e_q = ehrhart_polynomial(p), ehrhart_polynomial(q)
        assert ehrhart_polynomial(pq).coefficients == poly_mul(
            e_p.coefficients, e_q.coefficients
        )
        for k in (1, 2):
            (c_p, s_p), (c_q, s_q) = (plan_count_and_sum(build_plan(x), k) for x in (p, q))
            assert plan_count_and_sum(build_plan(pq), k) == (
                c_p * c_q,
                tuple(s * c_q for s in s_p) + tuple(s * c_p for s in s_q),
            )


def test_rigidity_square():
    sq = polytope_from_vertices([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    verdict = rigidity_verdict(sq, [1, 2, 3])
    assert verdict.identically_zero
    assert verdict.continuous_barycenter == (Fraction(0), Fraction(0))


def test_rigidity_dp1_witness(dp1_fan):
    p = polytope_from_fan(dp1_fan)
    verdict = rigidity_verdict(p, [1, 2, 3])
    assert not verdict.identically_zero
    assert verdict.witnesses[0] == (1, (Fraction(1, 9), Fraction(1, 9)))


def test_rigidity_p2(p2_fan):
    p = polytope_from_fan(p2_fan)
    verdict = rigidity_verdict(p, [1, 2, 3])
    assert verdict.identically_zero
    assert verdict.continuous_barycenter == (Fraction(0), Fraction(0))


def test_rigidity_needs_enough_samples(p2_fan):
    p = polytope_from_fan(p2_fan)
    with pytest.raises(ValidationError):
        rigidity_verdict(p, [1, 2])


def test_weak_convergence_sanity(del_pezzo_fans):
    # Bc_k approaches Bc; by k = 25 each coordinate is within 1/10 on the
    # two-dimensional examples.
    for f in del_pezzo_fans.values():
        p = polytope_from_fan(f)
        _, bc = volume_and_barycenter(p)
        bck = quantized_barycenter(p, 25)
        for a, b in zip(bck, bc):
            assert abs(a - b) < Fraction(1, 10)


def test_dilation_consistency(dp2_fan):
    # Counting in kP directly equals evaluating the plan at k.
    p = polytope_from_fan(dp2_fan)
    for k in (1, 2, 3, 4):
        assert count_lattice_points(p, k) == len(box_oracle(p, k))
