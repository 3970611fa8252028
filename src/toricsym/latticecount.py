"""Exact lattice-point enumeration, quantized barycenters, Ehrhart data.

The workhorse is an EnumerationPlan: per coordinate x_j, the facets of the
projection of P onto x_0..x_j, read off once as integer rows
A*x <= c0 + ck*k (right-hand sides linear in the dilation factor k), then
scanned depth-first with exact integer interval bounds (project-and-lift,
as in Normaliz).  Counting and coordinate sums never visit the
points of the last level: its interval is closed by an arithmetic series
inside the loop of the level above, and each upper level adds its
coordinate times a subtree count, which is what makes dilations of
7-dimensional polytopes tractable.

One plan of P serves every dilation.  Its counts give the Ehrhart
polynomial, and its coordinate sums, which are polynomials in k as well
(weighted Ehrhart theory), give the barycenter rational function.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolation, NonLatticePolytopeError, ValidationError
from .linalg import solve_rational
from .polytope import is_lattice_polytope, polytope_from_vertices, volume_and_barycenter


@dataclass(frozen=True)
class PlanRow:
    """sum(coeffs[i] * x[i] for i <= level) <= c0 + ck * k, all integers."""

    coeffs: tuple
    c0: int
    ck: int


@dataclass(frozen=True)
class EnumerationPlan:
    """Per-coordinate bound systems read off the projections of a polytope.

    `levels[j]` bounds x_j given x_0..x_{j-1}: its rows are the facets of
    the projection of P onto x_0..x_j with a nonzero coefficient on x_j,
    so they hold rows of both signs and their interval is exact over every
    real point of the projection below.  `constants` is always empty;
    `bench/tracer.py` still reads it.  `scans` memoizes
    (count, sums) by k for this plan, so each dilation is scanned once
    however many operations ask for it.
    """

    dim: int
    levels: tuple  # levels[j]: tuple of PlanRow with len(coeffs) == j+1
    constants: tuple = ()
    scans: dict = field(default_factory=dict, compare=False, repr=False)


def build_plan(p):
    """The plan of P by project-and-lift (as in Normaliz).

    Level j is taken from the facets of conv{v[:j+1] : v a vertex of P},
    one `polytope_from_vertices` call per level, and the last level from
    P's own inequalities; a facet with a zero coefficient on x_j belongs
    to a level below.  A facet a.x <= b becomes the integer row
    (D*a) . x <= D*b*k with D the denominator of b, so one plan serves
    every dilation kP.
    """
    n = p.dim
    levels = []
    for j in range(n):
        if j == n - 1:
            facets = p.inequalities
        else:
            facets = polytope_from_vertices([v[: j + 1] for v in p.vertices]).inequalities
        levels.append(tuple(
            PlanRow(coeffs=tuple(b.denominator * x for x in a), c0=0, ck=b.numerator)
            for a, b in facets
            if a[j]
        ))
    return EnumerationPlan(dim=n, levels=tuple(levels))


@lru_cache(maxsize=256)
def plan_for_polytope(p):
    """Build (and cache) the enumeration plan whose k-th evaluation is kP."""
    return build_plan(p)


def _scan_setup(plan, k):
    """Per-level divisor lists, residuals, and update fanouts for a scan.

    `res[j][r]` holds c - sum(a_i x_i) over the assigned prefix for row r
    of level j; `updates[i]` lists (res[j], r, coeff) for each residual
    touched when x_i moves, so each bound evaluation is a single exact
    division.
    """
    n = plan.dim
    divisors = []
    res = []
    for level in plan.levels:
        divisors.append([row.coeffs[-1] for row in level])
        res.append([row.c0 + row.ck * k for row in level])
    updates = []
    for i in range(n):
        ups = []
        for j in range(i + 1, n):
            for r, row in enumerate(plan.levels[j]):
                if row.coeffs[i]:
                    ups.append((res[j], r, row.coeffs[i]))
        updates.append(ups)
    return divisors, res, updates


def _level_bounds(divisors_j, res_j):
    """(lo, hi) of one level; `build_plan` gives it rows of both signs."""
    lo, hi = None, None
    for a, s in zip(divisors_j, res_j):
        if a > 0:
            b = s // a
            if hi is None or b < hi:
                hi = b
        else:
            b = -(s // (-a))
            if lo is None or b > lo:
                lo = b
    return lo, hi


def plan_count_and_sum(plan, k):
    """(#points, coordinate sums) of the k-th dilation, exactly.

    One depth-first pass: each call returns the point count of its
    subtree, and level j adds x_j times that count to sums[j] once per
    value x_j.  The loop over x_{n-2} closes the last level inline, with
    no call per leaf: it steps the last level's residuals, takes its
    bounds l..h, and adds h - l + 1 points whose last coordinates sum to
    (h + l)(h - l + 1)/2.  That product is always even, so the halving
    is deferred to one exact division at the end.  A level's interval is
    exact over every real point of the projection below, but over an
    integer prefix it may hold no integer, so a prefix with h < l (or a
    level with lo > hi) counts nothing.
    """
    n = plan.dim
    divisors, res, updates = _scan_setup(plan, k)
    if n == 1:
        lo, hi = _level_bounds(divisors[0], res[0])
        cnt = max(hi - lo + 1, 0)
        return cnt, ((hi + lo) * cnt // 2,)

    sums = [0] * n
    penultimate = n - 2
    last_res = res[n - 1]
    last_rows = list(enumerate(divisors[n - 1]))

    def rec(j):
        lo, hi = _level_bounds(divisors[j], res[j])
        if lo > hi:
            return 0
        ups = updates[j]
        for lst, r, a in ups:
            lst[r] -= a * lo
        count = weighted = 0
        x = lo
        if j == penultimate:
            ends = 0  # sum of (h + l) * (h - l + 1) over the leaves
            while True:
                l = h = None
                for r, a in last_rows:
                    s = last_res[r]
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
                for lst, r, a in ups:
                    lst[r] -= a
            sums[n - 1] += ends
        else:
            while True:
                c = rec(j + 1)
                count += c
                weighted += x * c
                if x == hi:
                    break
                x += 1
                for lst, r, a in ups:
                    lst[r] -= a
        for lst, r, a in ups:
            lst[r] += a * hi
        sums[j] += weighted
        return count

    count = rec(0)
    sums[n - 1] //= 2
    return count, tuple(sums)


def plan_points(plan, k):
    """All lattice points of the k-th dilation, in lexicographic order."""
    n = plan.dim
    divisors, res, updates = _scan_setup(plan, k)
    prefix = [0] * n

    def rec(j):
        lo, hi = _level_bounds(divisors[j], res[j])
        if j == n - 1:
            for x in range(lo, hi + 1):
                prefix[j] = x
                yield tuple(prefix)
            return
        ups = updates[j]
        for x in range(lo, hi + 1):
            for lst, r, a in ups:
                lst[r] -= a * x
            prefix[j] = x
            yield from rec(j + 1)
            for lst, r, a in ups:
                lst[r] += a * x

    yield from rec(0)


# ---------------------------------------------------------------------------
# public operations


def enumerate_lattice_points(p):
    """The integer points of the polytope, each once, lexicographically."""
    plan = plan_for_polytope(p)
    return tuple(plan_points(plan, 1))


def _count_and_sum(plan, k):
    """plan_count_and_sum, run only for a k this plan has not scanned."""
    if k not in plan.scans:
        plan.scans[k] = plan_count_and_sum(plan, k)
    return plan.scans[k]


def count_lattice_points(p, k=1):
    return _count_and_sum(plan_for_polytope(p), k)[0]


def quantized_barycenter(p, k):
    """Average of the lattice points of kP, divided by k."""
    if k < 1:
        raise ValidationError("k must be a positive integer")
    count, sums = _count_and_sum(plan_for_polytope(p), k)
    if count == 0:
        raise ValidationError(f"{k}-th dilation contains no lattice points")
    return tuple(Fraction(s, k * count) for s in sums)


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Counting polynomial of a lattice polytope; coefficients low to high."""

    coefficients: tuple

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, k):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * k + c
        return acc


def _interpolate(samples):
    """Exact polynomial through (k, value) samples, coefficients low to high."""
    n = len(samples) - 1
    mat = tuple(tuple(k ** j for j in range(n + 1)) for k, _ in samples)
    sol = solve_rational(mat, tuple(v for _, v in samples))
    if sol is None:
        raise InvariantViolation("interpolation nodes are degenerate")
    return tuple(sol)


def _ehrhart_from_counts(p, counts):
    """The polynomial through counts[k] = #(kP cap M), k = 0..n.

    The forced values a0 = 1 and a_n = vol(P) are asserted.
    """
    poly = EhrhartPolynomial(coefficients=_interpolate(list(enumerate(counts))))
    if poly.coefficients[0] != 1:
        raise InvariantViolation("Ehrhart constant term is not 1")
    vol, _ = volume_and_barycenter(p)
    if poly.coefficients[-1] != vol:
        raise InvariantViolation("Ehrhart leading coefficient differs from volume")
    return poly


def ehrhart_polynomial(p):
    """Interpolate #(kP cap M) from exact counts at k = 0..n.

    Only defined for lattice polytopes (rational ones have mere
    quasi-polynomials).  The forced values a0 = 1 and a_n = vol(P) are
    asserted on every call.
    """
    if not is_lattice_polytope(p):
        raise NonLatticePolytopeError(
            "Ehrhart polynomial requires a lattice polytope"
        )
    plan = plan_for_polytope(p)
    return _ehrhart_from_counts(
        p, [1] + [_count_and_sum(plan, k)[0] for k in range(1, p.dim + 1)]
    )


@dataclass(frozen=True)
class BarycenterRationalFunction:
    """Bc_{k,i}(P) = numerators[i](k) / ehrhart(k), exactly, for all k >= 1."""

    numerators: tuple  # per coordinate: coefficient tuple, low to high
    ehrhart: EhrhartPolynomial

    def numerator(self, i):
        return self.numerators[i]

    def barycenter_at(self, k):
        e = self.ehrhart(k)
        out = []
        for coeffs in self.numerators:
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * k + c
            out.append(acc / e)
        return tuple(out)

    def is_identically_zero(self):
        return all(all(c == 0 for c in coeffs) for coeffs in self.numerators)


def barycenter_rational_function(p):
    """Closed form for every quantized barycenter at once.

    Beside the count, the scan of P's plan returns the coordinate sums
    S_i(k) over the lattice points of kP.  For a lattice polytope each S_i
    is a polynomial of degree at most n+1 with S_i(0) = 0 (weighted Ehrhart
    theory; Brion-Vergne 1997), so it is interpolated from k = 0..n+1, and
    Bc_{k,i} = (S_i(k)/k) / E(k) with E the Ehrhart polynomial.  The same
    scan of k = 1..n+1 gives the counts: E is interpolated from k = 0..n
    and checked against the count at k = n+1.  The result is checked
    against a directly enumerated barycenter at k = n+2, which is not a
    sample.
    """
    if not is_lattice_polytope(p):
        raise NonLatticePolytopeError(
            "barycenter rational function requires a lattice polytope"
        )
    n = p.dim
    plan = plan_for_polytope(p)
    counts, sums = zip(*(_count_and_sum(plan, k) for k in range(1, n + 2)))
    e_p = _ehrhart_from_counts(p, (1,) + counts[:n])
    if e_p(n + 1) != counts[n]:
        raise InvariantViolation("Ehrhart polynomial disagrees with the count at n+1")
    numerators = []
    for i in range(n):
        q = _interpolate([(0, 0)] + [(k, s[i]) for k, s in enumerate(sums, 1)])
        numerators.append(q[1:])  # S_i(k)/k: q[0] = S_i(0) = 0
    brf = BarycenterRationalFunction(
        numerators=tuple(numerators), ehrhart=e_p
    )
    if brf.barycenter_at(n + 2) != quantized_barycenter(p, n + 2):
        raise InvariantViolation("rational barycenter disagrees with direct count")
    return brf


@dataclass(frozen=True)
class RigidityVerdict:
    identically_zero: bool
    witnesses: tuple  # of (k, nonzero Bc_k) pairs
    continuous_barycenter: tuple  # filled when identically zero
    rational_function: object


def rigidity_verdict(p, ks):
    """Vanishing of n+1 quantized barycenters forces all of them to vanish.

    Given n+1 distinct positive k with Bc_k(P) = 0, the numerators of the
    barycenter rational function must be identically zero (a degree bound)
    and Bc(P) = 0 follows; this is asserted.  Otherwise the nonzero
    witnesses are returned.
    """
    ks = sorted(set(int(k) for k in ks))
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
    _, bc = volume_and_barycenter(p)
    if bc != zero:
        raise InvariantViolation("quantized barycenters vanish but Bc(P) != 0")
    return RigidityVerdict(
        identically_zero=True,
        witnesses=(),
        continuous_barycenter=bc,
        rational_function=brf,
    )

