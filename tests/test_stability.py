import random
from fractions import Fraction

import pytest
from helpers_groups import TRIVIAL_GROUP, elements_of
from helpers_slice import intersect_with_subspace, slice_alpha
from toricsym.datasets import BUNDLED, load_bundled
from toricsym.errors import NonFanoError, ValidationError
from toricsym.families import generate_futaki
from toricsym.fan import Fan, polytope_from_fan
from toricsym.latticecount import quantized_barycenter
from toricsym.polytope import contains
from toricsym.stability import (
    alpha_invariant,
    delta_invariant,
    delta_k,
    dual_norm,
    metric_verdicts,
)
from toricsym.symmetry import (
    aut0_subgroup,
    classify_symmetry,
    fixed_subspace,
    polytope_automorphisms,
)


def gauge_oracle(u, p, depth=20):
    """Bisection on the containment predicate -u/lambda in P."""
    if all(x == 0 for x in u):
        return Fraction(0), Fraction(0)
    lo, hi = Fraction(0), Fraction(1)
    while not contains(p, tuple(-x / hi for x in u)):
        hi *= 2
    for _ in range(depth):
        mid = (lo + hi) / 2
        if mid == 0:
            break
        if contains(p, tuple(-x / mid for x in u)):
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_dual_norm_zero(dp2_fan):
    p = polytope_from_fan(dp2_fan)
    assert dual_norm((0, 0), p) == 0


def test_dual_norm_dp2(dp2_fan):
    p = polytope_from_fan(dp2_fan)
    value = dual_norm((-1, -1), p)
    assert value == 2
    lo, hi = gauge_oracle((-1, -1), p)
    assert lo <= value <= hi


def test_dual_norm_at_negated_vertices(del_pezzo_fans):
    for f in del_pezzo_fans.values():
        p = polytope_from_fan(f)
        for v in p.vertices:
            assert dual_norm(tuple(-x for x in v), p) == 1


def test_dual_norm_homogeneous_and_convex(dp2_fan):
    p = polytope_from_fan(dp2_fan)
    rng = random.Random(99)
    for _ in range(30):
        u = (Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
             Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
        w = (Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
             Fraction(rng.randint(-8, 8), rng.randint(1, 5)))
        c = Fraction(rng.randint(1, 10), rng.randint(1, 10))
        assert dual_norm(tuple(c * x for x in u), p) == c * dual_norm(u, p)
        t = Fraction(rng.randint(0, 10), 10)
        mix = tuple(t * a + (1 - t) * b for a, b in zip(u, w))
        assert dual_norm(mix, p) <= t * dual_norm(u, p) + (1 - t) * dual_norm(w, p)


def test_alpha_p2(p2_fan):
    assert alpha_invariant(p2_fan) == 1


def test_alpha_fano52(fano52_fan):
    assert alpha_invariant(fano52_fan) == Fraction(1, 2)


def test_alpha_dp2_with_containment_oracle(dp2_fan):
    # The fixed slice is the segment from (-1,-1) to (1/2,1/2); the gauge
    # peaks at (-1,-1) with value 2, giving 1/3.  Bracket the answer by
    # bisection on c -> -c/(1-c) P^H inside P.
    alpha = alpha_invariant(dp2_fan)
    assert alpha == Fraction(1, 3)
    p = polytope_from_fan(dp2_fan)
    basis = fixed_subspace(polytope_automorphisms(p).generators, 2)
    sl = intersect_with_subspace(p, basis)
    endpoints = sl.ambient_vertices()

    def slice_inside(c):
        return all(
            contains(p, tuple(-c / (1 - c) * x for x in v)) for v in endpoints
        )

    lo, hi = Fraction(0), Fraction(1)
    for _ in range(11):
        mid = (lo + hi) / 2
        if slice_inside(mid):
            lo = mid
        else:
            hi = mid
    assert hi - lo <= Fraction(1, 1024)
    assert lo <= alpha <= hi


def test_alpha_antitone_in_subgroup(del_pezzo_fans, p1xp1_fan):
    # Antitone under inclusion: a smaller subgroup fixes more, so its
    # alpha is no larger.  The trivial group fixes all of P.
    for f in del_pezzo_fans.values():
        a_full = alpha_invariant(f)
        a_triv = alpha_invariant(f, TRIVIAL_GROUP)
        assert a_triv <= a_full
        p = polytope_from_fan(f)
        worst = max(dual_norm(v, p) for v in p.vertices)
        assert a_triv == Fraction(1, 1 + worst)
    # Intermediate subgroup of the square: the diagonal swap alone.
    ident = ((1, 0), (0, 1))
    swap = ((0, 1), (1, 0))
    a_swap = alpha_invariant(p1xp1_fan, (ident, swap))
    assert a_swap == Fraction(1, 2)
    # H generates the group it names: the swap alone gives {id, swap}.
    assert alpha_invariant(p1xp1_fan, (swap,)) == a_swap
    assert (
        alpha_invariant(p1xp1_fan, (ident,))
        <= a_swap
        <= alpha_invariant(p1xp1_fan)
    )


def test_alpha_rejects_elements_outside_aut(p1xp1_fan, dp2_fan):
    swap = ((0, 1), (1, 0))
    with pytest.raises(ValidationError):
        alpha_invariant(p1xp1_fan, (swap, ((1, 1), (0, 1))))
    with pytest.raises(ValidationError):
        alpha_invariant(dp2_fan, (((0, -1), (1, 0)),))


def test_alpha_and_fixed_dimension_match_slice_oracle():
    # 8 bundled fans and five futaki fans, each with Aut P, Aut_0 P and the
    # trivial group: the projection from the generators agrees with the
    # kernel-and-slice route over every element.
    fans = [(name, load_bundled(name)) for name in BUNDLED] + [
        (f"futaki_{a}_{b}", generate_futaki(a, b))
        for a, b in ((1, 1), (2, 2), (1, 3), (2, 3), (3, 3))
    ]
    for name, f in fans:
        p = polytope_from_fan(f)
        full = polytope_automorphisms(p)
        assert classify_symmetry(f).fixed_space_dimension == len(
            fixed_subspace(full.generators, f.dim)
        )
        for g in (full, aut0_subgroup(p), TRIVIAL_GROUP):
            expected = slice_alpha(p, elements_of(g, f.dim))
            got = (alpha_invariant(f, g), len(fixed_subspace(g.generators, f.dim)))
            assert got == expected, (name, g.order)


def test_alpha_one_iff_trivial_fixed_slice(del_pezzo_fans, fano52_fan):
    fans = list(del_pezzo_fans.values()) + [fano52_fan]
    for f in fans:
        fixed = fixed_subspace(polytope_automorphisms(polytope_from_fan(f)).generators, f.dim)
        assert (alpha_invariant(f) == 1) == (len(fixed) == 0)


def test_delta_p2(p2_fan):
    assert delta_invariant(p2_fan) == 1
    assert delta_k(p2_fan, 1) == 1


def test_delta_dp1(dp1_fan):
    # Bc_1 = (1/9, 1/9); the best pairing over the four rays is 2/9.
    assert delta_k(dp1_fan, 1) == Fraction(9, 11)


def test_delta_fano52(fano52_fan):
    # max_i <Bc, v_i> = 5/36 over the eight rays (cross-checked below).
    assert delta_invariant(fano52_fan) == Fraction(36, 41)
    from toricsym.polytope import volume_and_barycenter

    p = polytope_from_fan(fano52_fan)
    _, bc = volume_and_barycenter(p)
    pairings = sorted(sum(b * x for b, x in zip(bc, v)) for v in fano52_fan.rays)
    assert pairings[-1] == Fraction(5, 36)


def test_delta_k_one_iff_bck_zero(del_pezzo_fans):
    for f in del_pezzo_fans.values():
        p = polytope_from_fan(f)
        for k in range(1, 6):
            zero = quantized_barycenter(p, k) == (Fraction(0),) * f.dim
            assert (delta_k(f, k) == 1) == zero


def test_delta_rejects_non_fano():
    f = Fan.from_rays([(1, 0), (0, 1), (-1, -3)])
    with pytest.raises(NonFanoError):
        delta_invariant(f)
    with pytest.raises(NonFanoError):
        delta_k(f, 1)


def test_verdicts_dp3(dp3_fan):
    rep = metric_verdicts(dp3_fan, 2)
    assert rep.ke_exists and rep.reductive
    assert all(v for _, v in rep.balanced_k)
    assert rep.delta == 1


def test_verdicts_dp2(dp2_fan):
    rep = metric_verdicts(dp2_fan, 1)
    assert not rep.ke_exists
    assert not rep.reductive
    assert rep.balanced_k == ((1, False),)


def test_verdicts_fano52(fano52_fan):
    rep = metric_verdicts(fano52_fan, 1)
    assert not rep.ke_exists
    assert rep.reductive
    assert rep.alpha == (("full", Fraction(1, 2)),)
