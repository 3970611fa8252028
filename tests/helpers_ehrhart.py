"""The Ehrhart and barycenter polynomials from scans of kP, k = 1..n+2, kept as a test oracle.

This is the route that `latticecount.ehrhart_polynomial` and
`latticecount.barycenter_rational_function` replaced: E is interpolated
from the counts at k = 0..n by a Vandermonde solve and checked at n+1,
and against the triangulated volume of `helpers_volume`; each coordinate
sum S_i is interpolated from k = 0..n+1, and the quantized barycenter at
k = n+2 is checked against a direct scan.  It scans a fresh plan at
positive k only, so it needs neither the interior scan nor reciprocity,
and shares no cached scans with the library.
"""

from fractions import Fraction

import helpers_volume
from toricsym.errors import InvariantViolation
from toricsym.latticecount import _evaluate, build_plan, plan_count_and_sum
from toricsym.linalg import solve_rational


def interpolate(samples):
    """Exact polynomial through (k, value) samples, coefficients low to high."""
    n = len(samples) - 1
    mat = tuple(tuple(k ** j for j in range(n + 1)) for k, _ in samples)
    sol = solve_rational(mat, tuple(v for _, v in samples))
    if sol is None:
        raise InvariantViolation("interpolation nodes are degenerate")
    return tuple(sol)


def polynomials(p):
    """(Ehrhart coefficients, barycenter numerators) of a lattice polytope."""
    n = p.dim
    plan = build_plan(p)
    counts, sums = zip(*(plan_count_and_sum(plan, k) for k in range(1, n + 3)))
    e = interpolate(list(enumerate((1,) + counts[:n])))
    assert e[0] == 1 and e[-1] == helpers_volume.volume_and_barycenter(p)[0]
    assert _evaluate(e, n + 1) == counts[n]
    numerators = tuple(
        interpolate([(0, 0)] + [(k, s[i]) for k, s in enumerate(sums[: n + 1], 1)])[1:]
        for i in range(n)
    )
    k = n + 2
    count = _evaluate(e, k)
    assert tuple(_evaluate(q, k) / count for q in numerators) == tuple(
        Fraction(s, k * counts[-1]) for s in sums[-1]
    )
    return e, numerators
