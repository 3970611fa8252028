"""Exact lattice-point enumeration, quantized barycenters, Ehrhart data.

The workhorse is an EnumerationPlan: per coordinate x_j, the facets of the
projection of P onto x_0..x_j, read off once as integer rows
A*x <= c0 + ck*k (right-hand sides linear in the dilation factor k) by
Fourier-Motzkin elimination from P's own facets, each step pruned exactly
by the vertices on each row, so the plan build runs no hull; then
scanned depth-first with exact integer interval bounds (project-and-lift,
as in Normaliz).  Counting and coordinate sums never visit the
points of the last level: its interval is closed by an arithmetic series,
and each upper level adds its coordinate times a subtree count, which is
what makes dilations of 7-dimensional polytopes tractable.  A long
interval of the penultimate level is not stepped either: over it the last
level's bounds are floors of linear functions of x_{n-2}, and the count
and sums are closed by the Euclid-like floor-sum recursion, in time
logarithmic in the coefficients and at most quadratic in the rows.

The x_j here are P's coordinates in the order the plan scans them, which
`coordinate_order` picks from P's facets: the coordinates on which the
most facet normals are nonzero come first, so a bundle's fibre
coordinates are scanned before its base.  Counts, sums and points still
come back in P's own coordinates.  Against P's own order, the
k = 1..n+2 scans run 7.1x faster on futaki(1,2), 10x on (2,2), 14x on
(1,3), 12x on (2,3), 14x on (3,3), 20x on (1,6) and 20x on (3,4); V_4
and V_6 keep their order.  Over the 98 bundled, criterion-4 and random
polytopes of the tests those scans fell 13-16% in total (702 -> 610 ms
and 785 -> 662 ms in two measurements).  Trying every order of each
polytope found 31% to save (800 -> 554 ms), but no cheap rule came
closer: breaking this rule's ties by the coordinates' widths measured
665 ms against its 677 (CPU, best of 3, 2-core Xeon, Python 3.11).

A subtree is also scanned once per distinct state.  On entry to level j,
the subtree's count and its sums of x_j..x_{n-1} depend on the prefix
x_0..x_{j-1} only through the residuals of the rows at levels >= j with a
nonzero coefficient on that prefix, and those are fixed by the residuals
of a basis of the rows' prefix forms.  Two prefixes can reach one state
only when that basis has fewer than j forms (rank < j).  The plan records
once which levels meet this rank condition, and a scan memoizes them by
the basis residuals: a bare int where the basis is one row, as at every
memoized level of futaki(a,b) and V_n, and a tuple otherwise (two rows
at level 3 of p2 x fano3fold_5_2, none at level 2 of a product of
surfaces).  Bundles and products such as futaki(3,3) have such levels,
and so has the bundled futaki_1_2 at level 2, since its scan order puts
its base coordinate last; the other bundled fans and the criterion-4
polytopes have none, so their scans run the plain loop.

The loop at level j-1 steps the state of level j by the key rows'
coefficients on x_{j-1} and looks it up itself; only a miss moves the
residuals of the levels below to the loop's value and enters level j by
a call.  A state keeps the subtree's count and what it added to the sums
of x_j..x_{n-1} as one tuple.  On futaki(3,3) at k = 3, 399 of the 454
lookups are hits, and each costs the lookup, the step of its key and the
adds of its count.  What a scan reads and no k changes (each level's
divisors, which residuals move with each x_j, the key rows and the last
level's split into upper and lower rows) is built once per plan
(`ScanTables`), so a scan of kP only fills in its residuals.  Both
together cut the scans of futaki(1,2) and futaki(3,3) at k = 1..3 from
1.13 to 0.80 ms (CPU, best of 15, 2-core Xeon, Python 3.11).

One plan of P serves every dilation, and its interior too: lowering
every row's right-hand side by 1 scans the lattice points strictly inside
kP (`plan_count_and_sum(plan, k, interior=True)`).  The counts give the
Ehrhart polynomial E, and the coordinate sums, which are polynomials S_i
in k as well (weighted Ehrhart theory), give the barycenter rational
function: one closed form, which the plan keeps once built, in integers.
Its leading coefficients are P's volume and the integrals of its
coordinates (Brion-Vergne 1997), so `polytope.volume_and_barycenter`
reads them off it.  By Ehrhart-Macdonald reciprocity the interior of kP
gives the polynomials' values at -k, so they are interpolated at nodes of
both signs, not at k = 1..n+2, taken in order of cost (after any k the
plan already scanned, and on a reflexive plan the mirror -1-k of each,
which costs no scan).  A scan costs about |k|^n.  When P is reflexive,
as the anticanonical polytope of every Fano fan is, the interior of kP
holds exactly the lattice points of (k-1)P (Hibi 1992), so node -k costs
the scan of (k-1)P and no interior scan runs: the nodes are -1, 1, -2,
2, ..., and from cold caches the scans are k = 1..floor(n/2)+1.
Otherwise the nodes are 1, -1, 2, -2, ..., and |k| <= ceil((n+2)/2).  On
futaki(3,3) the closed form's scans of k = 1..4 take 0.002-0.004 s of
CPU, against 0.005 s for k = 1..5 and the interiors of k = 1..4, and
0.016-0.018 s for k = 1..9 (best of 15, 2-core Xeon, Python 3.11; in P's
own coordinate order 0.072 and 0.23 s for the last two).

So a large dilation need not be scanned either: its E(k) and S(k) can be
read off the closed form, which costs the scans at its nodes and a few
integer evaluations.  Until the volume was read off the same closed form, it
also cost P's triangulated volume, against which E's leading coefficient
was checked.
`count_lattice_points` and `quantized_barycenter` do so only where every
measured input was cheaper that way (CPU, 2-core Xeon, Python 3.11, from
a built plan with no scans, against the scan of kP alone).  The first
rule was measured, and is still priced, with the samples k = 1..n+2;
the nodes cost less, so it now over-prices the route, and a re-pricing
needs its crossovers measured again.  Crossovers marked "old order" were
measured with each plan scanning P's own coordinates:

- P is a lattice polytope with n >= 4 whose plan memoizes no level below
  n-2, and k^(n-2) > ROUTE_MARGIN * (sum of j^(n-2) over j = 1..n+2),
  with ROUTE_MARGIN = 8: from k = 27 for n = 4, 19 for n = 5, 17 for
  n = 6 and 16 for n = 7 and 8.  A scan of such a plan enters level n-2
  once per prefix, about k^(n-2) times, whether or not that level is
  memoized.  On 88 random lattice 4-polytopes the polynomials won from
  k = 8..19, on 19 of dimension 5 and 6 from k = 8..10 (old order); at
  k = 27 they took at most 5% of the scan's time on the 30 random lattice
  4-polytopes of the tests, in either order.  futaki(1,2), whose plan
  memoizes level 2 alone, crosses at k = 10-11 (re-measured), and at
  k = 30 its polynomials took 1.3 ms against 9.8 ms for the scan.  The
  largest k^(n-2) / sum at a crossover was 3.97 (a lattice 4-simplex
  with coordinates in -1..1, k = 19, old order), and ROUTE_MARGIN about
  doubles it.
- P is a lattice polytope whose plan memoizes a level below n-2, the
  first at level m, and k^m > REFLEXIVE_ROUTE = 432 when the plan is
  reflexive, k^m > MEMO_ROUTE = 2048 otherwise: from k = 21 and 46
  where m = 2, 8 and 13 where m = 3, 433 and 2049 where m = 1.  The
  memo merges the prefixes that reach level m into states, so such a
  scan costs far less than k^(n-2), but it still enters level m about
  k^m times, and with no route V_6 at k = 10^11 never returned.
  Crossovers with residuals moved only on a miss (CPU, min of 3, from a
  built plan, two runs, 2-core Xeon, Python 3.11): reflexive, so the
  closed form scans no interior, m = 2, futaki(1,3) k = 6, (1,4) 8,
  (2,2) 8, (2,3) 9, (1,6) 9-10, (3,3) 9, (3,4) 11, V_6 9, V_8 11-12,
  p2 x fano3fold_5_2 5 and fano3fold_5_2 times a square 9;
  fano3fold_5_2 squared (m = 3) 6; the cubes [-1, 1]^n of dimension
  4-6 (m = 1) 72-89.  The largest k^m was 6^3 = 216, and
  REFLEXIVE_ROUTE doubles it.  Not reflexive, so the closed form scans
  interiors: m = 2, the unimodular simplices conv(0, e_1, ..., e_n) of
  dimension 5-8 18-21 and a unimodular 3-simplex times a triangle 21;
  the cubes [0, 1]^n of dimension 4-6 (m = 1) 25-211.  Their largest
  k^m was 21^2 = 441, under a quarter of MEMO_ROUTE, which doubled the
  largest one on the loop that moved every residual at every step,
  31^2 = 961, and is kept.
- For n = 3 the scan is linear in k: on 89 random lattice 3-polytopes,
  futaki(1,1) and fano3fold_5_2 the crossover ranged from k = 14 to
  221, so threefolds are scanned, and so are n <= 2, rational polytopes
  (whose counts are quasi-polynomials) and every k below the rule.
"""

from bisect import insort
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, sub

from .errors import InvariantViolation, NonLatticePolytopeError, ValidationError
from .polytope import _dilation, is_lattice_polytope
from .record import Record


class PlanRow(Record):
    """sum(coeffs[i] * x[i] for i <= level) <= c0 + ck * k, all integers."""

    __slots__ = ("coeffs", "c0", "ck")


class EnumerationPlan(Record):
    """Per-coordinate bound systems read off the projections of a polytope.

    The plan scans the coordinates of P in the order `order`: level j
    scans y_j = x_order[j], so the levels are those of the permuted
    polytope {y : y_j = x_order[j], x in P}.  `levels[j]` bounds y_j given
    y_0..y_{j-1}: its rows are the facets of that polytope's projection
    onto y_0..y_j with a nonzero coefficient on y_j, so they hold rows of both
    signs and their interval is exact over every real point of the
    projection below.  The scans return counts, sums and points in P's
    own coordinates.  `build_plan` takes `order` from
    `coordinate_order`; a hand-built plan leaves it at the identity unless
    it is given.  `constants` is always empty;
    `bench/tracer.py` still reads it.  `reflexive` is set by `build_plan`
    when P is a lattice polytope with every right-hand side 1, and is
    False on a hand-built plan unless it is given.  `scans` memoizes
    (count, sums) by k for this plan, so each dilation is scanned once
    however many operations ask for it; a negative k holds the signed
    values E(k), S(k) that `_count_and_sum` reads off the interior of
    |k|P, or off (|k|-1)P when the plan is reflexive.  `rational` is None
    until `closed_form` of the plan's lattice polytope is built, and then
    holds it in integers; `brf` is None until `barycenter_rational_function`
    makes its Fraction record from it.

    `memo_keys` is derived from `levels` when the plan is made.  For a
    level 1 <= j <= n-2 (the levels a scan enters by a call), take the
    rows at levels >= j with a nonzero coefficient on y_0..y_{j-1}.  When
    their prefix forms have rank < j, `memo_keys[j]` holds the
    (level, row) pairs of the first basis of those forms, whose residuals
    are the state a scan memoizes level j by.  Otherwise distinct
    prefixes give distinct states, and `memo_keys[j]` is None.
    `_memo_key` finds that basis row by row and stops at rank j.

    `tables` holds what every scan of the plan reads and no k changes
    (`ScanTables`), built here once, so that a scan only fills in its
    residuals.

    A hand-built plan is checked when made: `order` is a permutation of
    0..dim-1, every row at level j has j+1 coefficients, and every level
    holds a row with a positive and a row with a negative last
    coefficient, so each interval is bounded.  Equality, the hash and the
    repr read `dim`, `levels`, `constants` and `order`; the other slots
    are derived from these or are caches.
    """

    __slots__ = (
        "dim",
        "levels",  # levels[j]: tuple of PlanRow with len(coeffs) == j+1
        "constants",
        "order",  # order[j]: the coordinate of P that level j scans
        "reflexive",
        "scans",
        "rational",  # (W, W*E, W*S_i) once built
        "brf",
        "memo_keys",
        "tables",
    )
    _compare = ("dim", "levels", "constants", "order")

    def __init__(self, dim, levels, constants=(), scans=None, order=None, reflexive=False):
        order = tuple(range(dim)) if order is None else tuple(order)
        if sorted(order) != list(range(dim)):
            raise ValidationError(f"plan order {order} is not a permutation of 0..{dim - 1}")
        for j, level in enumerate(levels):
            if any(len(row.coeffs) != j + 1 for row in level):
                raise ValidationError(f"plan level {j} has a row without {j + 1} coefficients")
            lasts = [row.coeffs[j] for row in level]
            if not (any(c > 0 for c in lasts) and any(c < 0 for c in lasts)):
                raise ValidationError(f"plan level {j} lacks an upper or a lower row")
        keys = tuple(_memo_key(levels, j) if 0 < j < dim - 1 else None for j in range(dim))
        scans = {} if scans is None else scans
        Record.__init__(
            self, dim, levels, constants, order, reflexive, scans, None, None, keys,
            _scan_tables(levels, keys),
        )


def _memo_key(levels, j):
    """`memo_keys[j]` of a plan with these levels: a tuple of (level, row), or None.

    The rows at levels >= j, in order, are reduced on their first j
    coefficients against the basis kept so far, by fraction-free
    elimination in the order of the basis rows' pivots; a row that does not
    reduce to 0 joins the basis with its first nonzero entry as pivot.  So
    the basis is the first one, and the search stops once it holds j rows,
    as it does after about j rows at a level that is not memoized.
    """
    basis = []  # (pivot, reduced form), by rising pivot
    key = []
    seen = set()  # a form met before reduces to 0 again
    for jj in range(j, len(levels)):
        for r, row in enumerate(levels[jj]):
            v = row.coeffs[:j]
            if v in seen or not any(v):
                continue
            seen.add(v)
            for p, b in basis:
                f = v[p]
                if f:
                    e = b[p]
                    v = [e * x - f * y for x, y in zip(v, b)]
            for p, x in enumerate(v):
                if x:
                    if len(key) + 1 == j:
                        return None
                    insort(basis, (p, v), key=itemgetter(0))
                    key.append((jj, r))
                    break
    return tuple(key)


class ScanTables(Record):
    """What every scan of a plan reads that no dilation factor changes.

    A scan keeps the residual c - a.y of every row of the plan in one flat
    list, level by level, so that row r of level j is entry
    offset_j + r.  `rhs[i]` is (c0, ck) of entry i, so a scan of kP fills
    in c0 + ck*k, less 1 for the interior.  `bounds[j]` holds (i, a) for
    each row of level j, a its coefficient on y_j.  `fanouts[j]` holds
    (i, a) for each row at a level > j with a nonzero coefficient a on
    y_j, whose residual falls by a when y_j rises by 1.  `keys[j]` is
    None where `memo_keys[j]` is, and otherwise holds (i, a) for each key
    row, a its coefficient on y_{j-1}, the variable of the loop that looks
    level j's states up.  `upper` and `lower` hold (i, |a|, c) for the last
    level's rows with a > 0 and a < 0, c the coefficient on y_{n-2}.
    """

    __slots__ = ("rhs", "bounds", "fanouts", "keys", "upper", "lower")


def _scan_tables(levels, memo_keys):
    """The `ScanTables` of a plan with these levels and memo keys."""
    n = len(levels)
    offsets, bounds, fanouts = [], [], [[] for _ in range(n)]
    i = 0
    for j, level in enumerate(levels):
        offsets.append(i)
        bound = []
        for row in level:
            coeffs = row.coeffs
            bound.append((i, coeffs[j]))
            for jj in range(j):
                if coeffs[jj]:
                    fanouts[jj].append((i, coeffs[jj]))
            i += 1
        bounds.append(tuple(bound))
    last = [(offsets[-1] + r, row.coeffs) for r, row in enumerate(levels[-1])] if n > 1 else []
    return ScanTables(
        tuple((row.c0, row.ck) for level in levels for row in level),
        tuple(bounds),
        tuple(map(tuple, fanouts)),
        tuple(
            None if rows is None
            else tuple((offsets[jj] + r, levels[jj][r].coeffs[j - 1]) for jj, r in rows)
            for j, rows in enumerate(memo_keys)
        ),
        tuple((i, a[-1], a[-2]) for i, a in last if a[-1] > 0),
        tuple((i, -a[-1], a[-2]) for i, a in last if a[-1] < 0),
    )


def coordinate_order(p):
    """The order in which P's plan scans its coordinates.

    Most facets first: coordinates sorted by how many of P's facet normals
    have a nonzero entry on them, ties kept in P's order.
    """
    counts = [sum(1 for a, _ in p.inequalities if a[i]) for i in range(p.dim)]
    return tuple(sorted(range(p.dim), key=lambda i: -counts[i]))


def build_plan(p):
    """The plan of P by project-and-lift (as in Normaliz).

    The plan scans P's coordinates in the order s = `coordinate_order(p)`,
    so it is built on the points y with y_j = x_s[j] for x in P, scaled
    to y = D*x by the common denominator D of P's vertices.  The last
    level is P's own inequalities with their entries permuted alike.  The
    levels below are read off by Fourier-Motzkin elimination (Ziegler,
    Lectures on Polytopes, 1.2), with no hull: start from P's facets
    a.y <= c, each with the bitmask of the vertices on it
    (`Polytope.incidence`), and eliminate y_{n-1}, ..., y_1 in turn.
    Eliminating y_j keeps the rows with a zero coefficient on it, truncated,
    and adds (-q_j)*p + p_j*q for each row p with p_j > 0 and q with
    q_j < 0.  Both multipliers are positive, so the new row is tight at
    exactly the vertices in both masks, z = m_p & m_q.  Every facet of the
    projection onto y_0..y_{j-1} is among these rows, and any other row
    cuts out a face whose vertex set lies strictly inside some facet's.
    So the rows, taken by falling popcount of z, are kept unless z lies
    inside a kept mask, and that pruning is exact (the combinatorial test
    of Fukuda and Prodon 1996, applied to facets).  A pair whose z holds
    fewer than j vertices is not combined at all, since a facet of a
    j-polytope holds at least j, and neither is one whose z is already
    found, since rows with equal masks cut out one face.  Each new row
    is made primitive, and level j-1 holds, sorted, the kept rows with a
    nonzero coefficient on y_{j-1}.  On kP such a facet a.y <= c is the
    integer row (D/g)*a . y <= (c/g)*k, g = gcd(c, D), and P's own facet
    a.x <= b is (den b)*a_s . y <= (num b)*k, with a_s the permuted normal,
    so one plan serves every dilation.  The plan is reflexive when D = 1
    and every b is 1: P is a lattice polytope whose facets all lie at
    lattice distance 1 from 0.

    The levels equal those of one double description per projection of
    the vertices, which this replaced, in 0.24 ms against 1.16 ms on
    futaki(3,3), 1.2 against 24 ms on V_8 and 2.3 against 3.9 ms for the
    20 plans of the rigidity benchmark (CPU, min of 100 calls, 2-core
    Xeon, Python 3.11).  On simplicial polytopes with 400-850 facets the
    two take about as long.
    """
    n = p.dim
    order = coordinate_order(p)
    den = lcm(*{x.denominator for v in p.vertices for x in v})
    rows = []
    for (a, b), tight in zip(p.inequalities, p.incidence):
        a = tuple(a[i] for i in order)
        g = gcd(*a)
        rows.append((tuple(x // g for x in a), int(b * den) // g, sum(1 << v for v in tight)))
    levels = [tuple(
        PlanRow(coeffs=tuple(b.denominator * a[i] for i in order), c0=0, ck=b.numerator)
        for a, b in p.inequalities
        if a[order[n - 1]]
    )]
    for j in range(n - 1, 0, -1):
        pos, neg, found = [], [], {}
        for a, c, m in rows:
            if a[j] > 0:
                pos.append((a, c, m))
            elif a[j] < 0:
                neg.append((a, c, m))
            else:
                found[m] = (a[:j], c)
        masks = [m for _, _, m in neg]
        for ap, cp, mp in pos:
            t = ap[j]
            for i in [i for i, mq in enumerate(masks) if (mp & mq).bit_count() >= j]:
                aq, cq, mq = neg[i]
                z = mp & mq
                if z in found:
                    continue
                s = -aq[j]
                a = tuple(s * x + t * y for x, y in zip(ap[:j], aq[:j]))
                g = gcd(*a)
                found[z] = (tuple(x // g for x in a), (s * cp + t * cq) // g)
        rows = []
        for z in sorted(found, key=int.bit_count, reverse=True):
            if not any(z & m == z for _, _, m in rows):
                rows.append((*found[z], z))
        level = []
        for a, c in sorted((a, c) for a, c, _ in rows if a[j - 1]):
            g = gcd(c, den)
            level.append(PlanRow(coeffs=tuple(den // g * x for x in a), c0=0, ck=c // g))
        levels.append(tuple(level))
    reflexive = den == 1 and all(b == 1 for _, b in p.inequalities)
    return EnumerationPlan(
        dim=n, levels=tuple(reversed(levels)), order=order, reflexive=reflexive
    )


@lru_cache(maxsize=256)
def plan_for_polytope(p):
    """Build (and cache) the enumeration plan whose k-th evaluation is kP."""
    return build_plan(p)


def _level_bounds(rows, res):
    """(lo, hi) of one level, its rows (i, a) from `ScanTables.bounds`.

    `build_plan` gives every level rows of both signs.
    """
    lo, hi = None, None
    for i, a in rows:
        s = res[i]
        if a > 0:
            b = s // a
            if hi is None or b < hi:
                hi = b
        else:
            b = -(s // (-a))
            if lo is None or b > lo:
                lo = b
    return lo, hi


CLOSE_FROM = 16  # hi - lo at which the penultimate level is closed, not stepped


def floor_sums(p, q, m, n):
    """(sum f, sum t*f, sum f*f) of f(t) = floor((p*t + q)/m) over 0 <= t < n.

    Any signs of p and q, m > 0.  The Euclid-like floor-sum recursion
    (Graham, Knuth and Patashnik, Concrete Mathematics, 3.5): split off
    the integer parts of p/m and q/m, then count the lattice points under
    the remaining line by rows instead of columns, which swaps p and m.
    """
    if n <= 0:
        return 0, 0, 0
    p1, p = divmod(p, m)
    q1, q = divmod(q, m)
    s1 = n * (n - 1) // 2  # sum of t
    s2 = s1 * (2 * n - 1) // 3  # sum of t*t
    # f = p1*t + q1 + F(t) with F(t) = floor((p*t + q)/m) in 0..top
    top = (p * (n - 1) + q) // m
    if top:
        # F(t) = #{i < top : t > G(i)} with G(i) = floor((m*i + m - q - 1)/p)
        g0, g1, g2 = floor_sums(m, m - q - 1, p, top)
        f0 = top * (n - 1) - g0
        f1 = top * s1 - (g2 + g0) // 2
        f2 = top * top * (n - 1) - 2 * g1 - g0  # F*F = sum of 2i+1 over i < F
    else:
        f0 = f1 = f2 = 0
    return (
        p1 * s1 + q1 * n + f0,
        p1 * s2 + q1 * s1 + f1,
        p1 * p1 * s2 + 2 * p1 * q1 * s1 + q1 * q1 * n + 2 * (p1 * f1 + q1 * f0) + f2,
    )


def _envelope_sums(rows, t0, t1):
    """(sum E, sum t*E, sum E*E) over t0 <= t <= t1 of E(t) = min floor((s - c*t)/m).

    `rows` holds (m, s, c) with m > 0.  E is the floor of a concave
    piecewise-linear function, so it splits into at most len(rows) pieces,
    each one row's floor-linear function; a piece ends one step before the
    first integer t at which a row of smaller slope reaches its row.
    """
    e0 = e1 = e2 = 0
    t = t0
    while t <= t1:
        # the row least at t; among equals the one of least slope, -c/m
        bm, bs, bc = rows[0]
        bv = bs - bc * t
        for m, s, c in rows[1:]:
            v = s - c * t
            if v * bm < bv * m or (v * bm == bv * m and c * bm > bc * m):
                bm, bs, bc, bv = m, s, c, v
        end = t1
        for m, s, c in rows:
            d = bm * c - m * bc
            if d > 0:  # smaller slope: least from ceil((bm*s - m*bs)/d) on
                cross = -((m * bs - bm * s) // d)
                if cross <= end:
                    end = cross - 1
        f0, f1, f2 = floor_sums(-bc, bv, bm, end - t + 1)
        e0 += f0
        e1 += t * f0 + f1
        e2 += f2
        t = end + 1
    return e0, e1, e2


def _close_last_two(upper, lower, width):
    """(count, sum t*count_t, sum (h+l)(h-l+1)) over t = 0..width, exactly.

    At x_{n-2} = lo + t the last level runs from l(t) = -min floor(
    (s - c*t)/m) over `lower` to h(t) = min floor((s - c*t)/m) over
    `upper`, each row (m, s, c) with m > 0.  Where the real fibre is
    nonempty, h >= l - 1, and a width of -1 adds 0 to each of h - l + 1
    and (h + l)(h - l + 1) = h*h + h - l*l + l, so both split into sums
    over the two envelopes.  t is first clipped to where every upper row
    is at least every lower row: there the fibre is nonempty, outside it
    holds no point.
    """
    t0, t1 = 0, width
    for mu, su, cu in upper:
        for mw, sw, cw in lower:
            # (su - cu*t)/mu + (sw - cw*t)/mw >= 0, times mu*mw
            a = mw * su + mu * sw
            b = mw * cu + mu * cw
            if b > 0:
                if a < b * t1:
                    t1 = a // b
            elif b < 0:
                if a < b * t0:
                    t0 = -(a // -b)
            elif a < 0:
                return 0, 0, 0
    if t0 > t1:
        return 0, 0, 0
    h0, h1, h2 = _envelope_sums(upper, t0, t1)
    g0, g1, g2 = _envelope_sums(lower, t0, t1)  # l = -g
    points = t1 - t0 + 1
    count = h0 + g0 + points
    weighted = h1 + g1 + (t0 + t1) * points // 2
    return count, weighted, h2 + h0 - g2 - g0


def plan_count_and_sum(plan, k, interior=False):
    """(#points, coordinate sums) of the k-th dilation, exactly.

    With `interior`, of the points strictly inside it, int(kP): every row
    a.x <= c0 + ck*k becomes a.x <= c0 + ck*k - 1, which for integer rows
    and points is a.x < c0 + ck*k.  The interior of a projection is the
    projection of the interior, so each level still holds every prefix of
    a point of int(kP), and the scan below serves both.  The count is the
    plain one, with no reciprocity sign (`_count_and_sum` applies it).
    The sums are in P's coordinates: level j's is that of x_order[j].

    The scan reads the plan's `tables` (`ScanTables`), built once per
    plan, and only fills in the residual of each row for this k.  One
    depth-first pass: each call returns the point count of its
    subtree, and level j adds x_j times that count to sums[j] once per
    value x_j.  The last two levels are closed, with no call per leaf.
    Over x_{n-2} in lo..hi the last level runs from l to h and adds
    h - l + 1 points whose last coordinates sum to (h + l)(h - l + 1)/2.
    That product is always even, so the halving is deferred to one exact
    division at the end.  A level's interval is exact over every real
    point of the projection below, but over an integer prefix it may hold
    no integer, so a level with lo > hi counts nothing.

    When hi - lo >= CLOSE_FROM, `_close_last_two` sums the interval in
    closed form: x_{n-2} is first clipped to where the last level's real
    fibre is nonempty, which makes h >= l - 1 there and lets the sums
    split over the envelopes h and l, each summed piece by piece with
    `floor_sums`.  Shorter intervals are stepped, taking l and h from the
    last level's residuals and skipping h < l.  Closing one interval
    costs about as much as stepping 14-24 of its values (measured on
    2-dimensional plans with 1+1 and 3+3 last-level rows, 2-core Xeon,
    Python 3.11).  On the 20 criterion-4 plans of the rigidity benchmark,
    whose intervals average 7 values, closing every interval of two or
    more values made their scans at k = 1..n+2 40-85% slower, and from a
    cutoff of 16 on they read as fast as stepping everything.  The scan
    benchmark's futaki(1,2) at k = 30 and futaki(3,3) at k = 1..3 read
    0.09-0.14 s for every cutoff up to 24, against 0.51-0.57 s stepped.

    A level j with `plan.memo_keys[j]` keeps, for this call only, one
    entry per distinct state: the residuals of those rows on entry, an int
    for one row and a tuple otherwise.  The loop at level j-1 reads the
    state at lo and moves it by the key rows' coefficients on x_{j-1} at
    each step, and looks it up.  It leaves the residuals of the levels
    below where they were: only a miss moves them, by a*(x - at) from the
    value `at` they hold to x, then calls rec(j) and stores (count, what
    it added to sums[j], ..., sums[n-1]).  So a hit costs the lookup, the
    step of the key and the adds of its count: the hits' sums are added
    once after the loop, one column per level.  The loop of a level whose
    next level is not memoized is the plain one: it moves the residuals at
    each value and calls, with no lookup.
    """
    n = plan.dim
    tables = plan.tables
    shift = 1 if interior else 0
    res = [c0 + ck * k - shift for c0, ck in tables.rhs]
    bounds, fanouts, keys = tables.bounds, tables.fanouts, tables.keys
    if n == 1:
        lo, hi = _level_bounds(bounds[0], res)
        cnt = max(hi - lo + 1, 0)
        return cnt, ((hi + lo) * cnt // 2,)

    sums = [0] * n
    penultimate = n - 2
    last_rows = bounds[n - 1]
    upper, lower = tables.upper, tables.lower
    memos = [{} for _ in range(n)]

    def rec(j):
        lo, hi = _level_bounds(bounds[j], res)
        if lo > hi:
            return 0
        if j == penultimate and hi - lo >= CLOSE_FROM:
            # the last level's residuals at x_{n-2} = lo, unmoved
            count, weighted, ends = _close_last_two(
                [(a, res[i] - c * lo, c) for i, a, c in upper],
                [(a, res[i] - c * lo, c) for i, a, c in lower],
                hi - lo,
            )
            sums[j] += weighted + lo * count
            sums[n - 1] += ends
            return count
        ups = fanouts[j]
        count = weighted = 0
        x = lo
        key_rows = keys[j + 1]
        if key_rows is None:
            for i, a in ups:
                res[i] -= a * lo
            if j == penultimate:
                ends = 0  # sum of (h + l) * (h - l + 1) over the leaves
                while True:
                    l = h = None
                    for i, a in last_rows:
                        s = res[i]
                        if a > 0:
                            b = s // a
                            if h is None or b < h:
                                h = b
                        else:
                            b = -(s // -a)
                            if l is None or b > l:
                                l = b
                    if h >= l:
                        c = h - l + 1
                        count += c
                        weighted += x * c
                        ends += (h + l) * c
                    if x == hi:
                        break
                    x += 1
                    for i, a in ups:
                        res[i] -= a
                sums[n - 1] += ends
            else:
                while True:
                    c = rec(j + 1)
                    count += c
                    weighted += x * c
                    if x == hi:
                        break
                    x += 1
                    for i, a in ups:
                        res[i] -= a
            for i, a in ups:
                res[i] += a * x
        else:
            # Level j+1 is memoized: its state is stepped and looked up
            # here, and the residuals move to x only on a miss.  A state is
            # (count, sums[j+1:] added); the hits' sums are added once,
            # column by column, after the loop.
            memo = memos[j + 1]
            hits = []
            at = 0  # the value of x_j the residuals below hold
            if len(key_rows) == 1:
                ((i, step),) = key_rows
                key, steps = res[i] - step * lo, None
            else:
                key = tuple([res[i] - a * lo for i, a in key_rows])
                steps = [a for _, a in key_rows]
            while True:
                state = memo.get(key)
                if state is None:
                    if x != at:
                        d = x - at
                        for i, a in ups:
                            res[i] -= a * d
                        at = x
                    before = sums[j + 1:]
                    c = rec(j + 1)
                    memo[key] = (c, *map(sub, sums[j + 1:], before))
                else:
                    c = state[0]
                    hits.append(state)
                count += c
                weighted += x * c
                if x == hi:
                    break
                x += 1
                key = key - step if steps is None else tuple(map(sub, key, steps))
            if at:
                for i, a in ups:
                    res[i] += a * at
            if hits:
                _, *columns = zip(*hits)
                for i, column in enumerate(columns, j + 1):
                    sums[i] += sum(column)
        sums[j] += weighted
        return count

    count = rec(0)
    sums[n - 1] //= 2
    by_coordinate = [0] * n
    for i, s in zip(plan.order, sums):
        by_coordinate[i] = s
    return count, tuple(by_coordinate)


def plan_points(plan, k):
    """All lattice points of the k-th dilation, in lexicographic order.

    The points are in P's coordinates: the scan writes its level j's value
    at coordinate `plan.order[j]`, then the points are sorted.
    """
    n = plan.dim
    tables = plan.tables
    res = [c0 + ck * k for c0, ck in tables.rhs]
    order = plan.order
    point = [0] * n

    def rec(j):
        lo, hi = _level_bounds(tables.bounds[j], res)
        at = order[j]
        if j == n - 1:
            for x in range(lo, hi + 1):
                point[at] = x
                yield tuple(point)
            return
        ups = tables.fanouts[j]
        for x in range(lo, hi + 1):
            for i, a in ups:
                res[i] -= a * x
            point[at] = x
            yield from rec(j + 1)
            for i, a in ups:
                res[i] += a * x

    return sorted(rec(0))


# ---------------------------------------------------------------------------
# public operations


def enumerate_lattice_points(p):
    """The integer points of the polytope, each once, lexicographically."""
    plan = plan_for_polytope(p)
    return tuple(plan_points(plan, 1))


def _count_and_sum(plan, k):
    """(E(k), S(k)) from at most one scan per k this plan has not scanned.

    For k >= 0 that is plan_count_and_sum of kP.  A negative k takes the
    lattice points strictly inside |k|P, and Ehrhart-Macdonald reciprocity
    (Macdonald 1971; weighted, Brion-Vergne 1997) gives the polynomials'
    values there: E(k) = (-1)^n #int(|k|P) and S_i(k) = (-1)^(n+1) (sum of
    x_i over int(|k|P)).  Those hold for a lattice polytope, the only kind
    that asks for a negative k.  On a reflexive plan int(|k|P) holds the
    lattice points of (|k|-1)P (Hibi 1992), read off this plan's own scan
    of (|k|-1)P, and for k = -1 the point 0 alone: E(-1) = (-1)^n and
    S(-1) = 0, with no scan.  Any other plan scans the interior of |k|P.
    """
    if k not in plan.scans:
        if k >= 0:
            plan.scans[k] = plan_count_and_sum(plan, k)
        else:
            if not plan.reflexive:
                count, sums = plan_count_and_sum(plan, -k, interior=True)
            elif k == -1:
                count, sums = 1, (0,) * plan.dim
            else:
                count, sums = _count_and_sum(plan, -k - 1)
            sign = (-1) ** plan.dim
            plan.scans[k] = sign * count, tuple(-sign * s for s in sums)
    return plan.scans[k]


def _nodes(plan, count):
    """`count` distinct nonzero dilations at which to interpolate, cheapest first.

    First the free nodes, then the rest, each in order of cost.  A scan of
    kP or of its interior costs about k^n.  The free nodes are the k this
    plan already holds, and on a reflexive plan also -1 and the mirror
    -1-k of each k >= 0 it holds, since node -1-k is read off the scan of
    kP (`_count_and_sum`) and -1 off 0P = {0}.  So on a reflexive plan the
    order is -1, 1, -2, 2, ..., by the scan each node reads, and from cold
    caches the scans are k = 1..floor(count/2); otherwise it is 1, -1, 2,
    -2, ..., and |k| <= ceil(count/2).  On a reflexive plan each node
    k >= 1 is next to its mirror -1-k, and -1 comes first, whose mirror 0
    is a point of every interpolation: among 0 and the nodes only the last
    can lack its mirror (`barycenter_rational_function`).
    """
    free = {k for k in plan.scans if k}
    if plan.reflexive:
        free |= {-1 - k for k in (0, *plan.scans) if k >= 0}

    def cost(x):
        return (-1 - x if plan.reflexive and x < 0 else abs(x), x < 0)

    nodes = sorted(free, key=cost)[:count]
    k = 1
    while len(nodes) < count:
        for x in ((-k, k) if plan.reflexive else (k, -k)):
            if len(nodes) < count and x not in free:
                nodes.append(x)
        k += 1
    return nodes


ROUTE_MARGIN = 8  # about twice the largest ratio at a measured crossover
MEMO_ROUTE = 2048  # over twice the largest k^m at a crossover of a non-reflexive memoized plan
REFLEXIVE_ROUTE = 432  # twice the largest k^m at a crossover of a reflexive memoized plan


def _from_polynomials(p, plan, k):
    """Whether kP is read off P's polynomials rather than scanned.

    The rule of the module docstring, for a lattice polytope P with n >= 4.
    When the plan memoizes a level below n-2, m the first: k^m >
    REFLEXIVE_ROUTE when the plan is reflexive, since its closed form
    scans no interior, and k^m > MEMO_ROUTE otherwise.  Without such a
    level, k^(n-2) > ROUTE_MARGIN * (sum of j^(n-2) over the samples
    j = 1..n+2), which implies k > n+2; the sum prices the samples the
    crossovers were measured with, not today's cheaper nodes.  A memo at
    level n-2 does not count: the scan still enters that level about
    k^(n-2) times.
    """
    n = p.dim
    if n < 4:
        return False
    m = next((j for j, keys in enumerate(plan.memo_keys[: n - 2]) if keys is not None), None)
    if m is not None:
        if k ** m <= (REFLEXIVE_ROUTE if plan.reflexive else MEMO_ROUTE):
            return False
    elif k ** (n - 2) <= ROUTE_MARGIN * sum(j ** (n - 2) for j in range(1, n + 3)):
        return False
    return is_lattice_polytope(p)


def _dilation_count_and_sum(p, k):
    """(#(kP cap M), coordinate sums over kP cap M), exactly.

    Where `_from_polynomials` holds, these are E(k) and S_i(k), read off
    the integer closed form (W, W*E, W*S_i) that the plan keeps once
    built (`closed_form`): each is evaluated in ints and divided by W
    once, and a nonzero remainder means a polynomial is not integral.
    Every other k, and every rational polytope (whose counts are
    quasi-polynomials), is scanned once per plan.  `plan_count_and_sum`
    stays the oracle for large k.
    """
    plan = plan_for_polytope(p)
    if k in plan.scans or not _from_polynomials(p, plan, k):
        return _count_and_sum(plan, k)
    den, e, qs = closed_form(plan)
    values = [divmod(_evaluate(c, k), den) for c in (e, *qs)]
    if any(r for _, r in values):
        raise InvariantViolation(f"Ehrhart polynomials are not integral at k = {k}")
    count, *sums = (v for v, _ in values)
    return count, tuple(sums)


def count_lattice_points(p, k=1):
    """#(kP cap M) for k >= 0 (0P is {0}).

    A scan of kP, or, for a lattice polytope with n >= 4 and k past the
    rule, the value of P's Ehrhart polynomial.  Past the rule means k >= 27
    for n = 4, 19 for n = 5, 17 for n = 6, 16 for n = 7 and 8 when the plan
    memoizes no level below n-2, and when it does, m the first such level,
    k^m > 432 on a reflexive plan (from k = 21 where m = 2) and k^m > 2048
    on any other; the module docstring has the rule and the measured
    crossovers.
    """
    k = _dilation(k)
    if k < 0:
        raise ValidationError("k must be a nonnegative integer")
    return _dilation_count_and_sum(p, k)[0]


def quantized_barycenter(p, k):
    """Average of the lattice points of kP, divided by k.

    kP's count and sums come from a scan of kP, or, for a lattice polytope
    with n >= 4 and k past the rule of `count_lattice_points`, from P's
    weighted Ehrhart polynomials; the module docstring has the rule and
    the measured crossovers.
    """
    k = _dilation(k)
    if k < 1:
        raise ValidationError("k must be a positive integer")
    count, sums = _dilation_count_and_sum(p, k)
    if count == 0:
        raise ValidationError(f"{k}-th dilation contains no lattice points")
    return tuple(Fraction(s, k * count) for s in sums)


def _evaluate(coefficients, k):
    """The polynomial with these coefficients, low to high, at k, exactly.

    Integer coefficients give an int, Fraction ones a Fraction.
    """
    acc = 0
    for c in reversed(coefficients):
        acc = acc * k + c
    return acc


class EhrhartPolynomial(Record):
    """Counting polynomial of a lattice polytope; coefficients low to high."""

    __slots__ = ("coefficients",)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, k):
        return _evaluate(self.coefficients, k)


def _times_linear(poly, x):
    """Coefficients of poly(k) * (k - x), low to high."""
    return [a - x * b for a, b in zip([0, *poly], [*poly, 0])]


def _lagrange_basis(xs):
    """(W, rows): an integer Lagrange basis on the distinct integers xs.

    rows[j] holds the coefficients, low to high, of (W / w_j) times
    prod_{i != j} (k - x_i), with w_j = prod_{i != j} (x_j - x_i) and
    W = lcm |w_j|.  So the polynomial through the points (x_j, y_j) is
    sum_j y_j rows[j] / W, and integer values give integer numerators.
    """
    products, weights = [], []
    for j, xj in enumerate(xs):
        poly, w = [1], 1
        for i, xi in enumerate(xs):
            if i != j:
                poly = _times_linear(poly, xi)
                w *= xj - xi
        products.append(poly)
        weights.append(w)
    den = lcm(*weights)
    return den, [[den // w * c for c in poly] for poly, w in zip(products, weights)]


def _numerators(rows, values):
    """W times the coefficients of the polynomial through `values` (`_lagrange_basis`)."""
    return [sum(y * c for y, c in zip(values, column)) for column in zip(*rows)]


def ehrhart_polynomial(p):
    """#(kP cap M) as a polynomial in k, for a lattice polytope.

    It is the Ehrhart polynomial that `barycenter_rational_function`
    interpolates and checks with the coordinate sums, so one set of node
    scans gives both.  Only defined for lattice polytopes (rational ones
    have mere quasi-polynomials).
    """
    if not is_lattice_polytope(p):
        raise NonLatticePolytopeError(
            "Ehrhart polynomial requires a lattice polytope"
        )
    return barycenter_rational_function(p).ehrhart


class BarycenterRationalFunction(Record):
    """Bc_{k,i}(P) = numerators[i](k) / ehrhart(k), exactly, for all k >= 1."""

    __slots__ = (
        "numerators",  # per coordinate: coefficient tuple, low to high
        "ehrhart",
    )

    def numerator(self, i):
        return self.numerators[i]

    def barycenter_at(self, k):
        e = self.ehrhart(k)
        return tuple(_evaluate(coeffs, k) / e for coeffs in self.numerators)

    def is_identically_zero(self):
        return all(all(c == 0 for c in coeffs) for coeffs in self.numerators)


def closed_form(plan):
    """(W, W*E, W*S_i): the plan's lattice polytope's closed form, in integers.

    E's coefficients and each S_i's, low to high, times the one integer
    W; S_i has degree n+1 and E degree n.  Built once per plan, with the
    checks `barycenter_rational_function` describes, and kept on the plan.
    The plan must be that of a lattice polytope.
    """
    if plan.rational is None:
        n = plan.dim
        *nodes, last = _nodes(plan, n + 2)
        counts, sums = zip(*(_count_and_sum(plan, k) for k in nodes))
        den, rows = _lagrange_basis([0, *nodes])
        e = _numerators(rows, [1, *counts])
        qs = [_numerators(rows, [0, *s]) for s in zip(*sums)]
        if e[n + 1]:
            raise InvariantViolation("Ehrhart polynomial has a nonzero k^(n+1) coefficient")
        count, last_sums = _count_and_sum(plan, last)
        if _evaluate(e, last) != den * count:
            raise InvariantViolation("Ehrhart polynomial disagrees with the count at a further node")
        if any(_evaluate(q, last) != den * s for q, s in zip(qs, last_sums)):
            raise InvariantViolation(
                "coordinate-sum polynomials disagree with the sums at a further node"
            )
        object.__setattr__(plan, "rational", (den, tuple(e[: n + 1]), tuple(map(tuple, qs))))
    return plan.rational


def barycenter_rational_function(p):
    """Closed form for every quantized barycenter at once.

    Beside the count, the scan of P's plan returns the coordinate sums
    S_i(k) over the lattice points of kP.  For a lattice polytope each S_i
    is a polynomial of degree at most n+1 with S_i(0) = 0 (weighted Ehrhart
    theory; Brion-Vergne 1997), and Bc_{k,i} = (S_i(k)/k) / E(k) with E the
    Ehrhart polynomial.  Both are read at the first n+2 nodes of `_nodes`
    (a negative k by reciprocity, `_count_and_sum`).  E and every S_i are
    interpolated through the same points, 0 and the first n+1 nodes, on
    one integer Lagrange basis (`_lagrange_basis`), and the plan keeps
    the result in integers (`closed_form`), from which this makes one
    Fraction record per plan.  E's k^(n+1) coefficient must vanish, and E
    and each S_i must match the scan at the last node, which is none of
    theirs.

    When P is reflexive, node -1-m takes the value at m with the sign of
    reciprocity, so E(-1-m) = (-1)^n E(m) and S_i(-1-m) = (-1)^(n+1)
    S_i(m) (Hibi 1992) hold by construction, with no check.  Let F be E or
    S_i, with sign s = (-1)^n or (-1)^(n+1), and R(m) = F(-1-m) - s*F(m):
    - R has degree at most n+1, as F has.
    - R vanishes at m and at -1-m whenever both are among 0 and the nodes
      (F(-1) = s*F(0), for E(0) = 1 and S_i(0) = 0).
    - The points, 0 and the n+2 nodes, are n+3, and of them only the last
      node can lack its mirror (`_nodes` takes -1 and each free k with its
      mirror), so once the last node matches R has at least n+2 zeros,
      more than its degree, and R = 0.
    """
    if not is_lattice_polytope(p):
        raise NonLatticePolytopeError(
            "barycenter rational function requires a lattice polytope"
        )
    plan = plan_for_polytope(p)
    if plan.brf is None:
        den, e, qs = closed_form(plan)
        brf = BarycenterRationalFunction(
            # S_i(k)/k: q[0] = S_i(0) = 0
            numerators=tuple(tuple(Fraction(c, den) for c in q[1:]) for q in qs),
            ehrhart=EhrhartPolynomial(coefficients=tuple(Fraction(c, den) for c in e)),
        )
        object.__setattr__(plan, "brf", brf)
    return plan.brf


class RigidityVerdict(Record):
    __slots__ = (
        "identically_zero",
        "witnesses",  # of (k, nonzero Bc_k) pairs
        "continuous_barycenter",  # filled when identically zero
        "rational_function",
    )


def rigidity_verdict(p, ks):
    """Vanishing of n+1 quantized barycenters forces all of them to vanish.

    Given n+1 distinct positive k with Bc_k(P) = 0, the numerators of the
    barycenter rational function must be identically zero (a degree bound);
    this is asserted.  Bc(P) = 0 follows, since Bc(P)_i is the k^(n+1)
    coefficient of S_i over vol(P) (`polytope.volume_and_barycenter`).
    Otherwise the nonzero witnesses are returned.
    """
    ks = sorted(set(map(_dilation, ks)))
    if len(ks) < p.dim + 1 or any(k < 1 for k in ks):
        raise ValidationError("need at least n+1 distinct positive dilations")
    if not is_lattice_polytope(p):
        raise NonLatticePolytopeError("rigidity verdict requires a lattice polytope")
    witnesses = []
    zero = (Fraction(0),) * p.dim
    for k in ks:
        bc = quantized_barycenter(p, k)
        if bc != zero:
            witnesses.append((k, bc))
    if witnesses:
        return RigidityVerdict(
            identically_zero=False,
            witnesses=tuple(witnesses),
            continuous_barycenter=(),
            rational_function=None,
        )
    brf = barycenter_rational_function(p)
    if not brf.is_identically_zero():
        raise InvariantViolation(
            "n+1 vanishing quantized barycenters but nonzero numerator"
        )
    return RigidityVerdict(
        identically_zero=True,
        witnesses=(),
        continuous_barycenter=zero,
        rational_function=brf,
    )

