"""The per-leaf lattice scan and the plan's memo keys, kept as test oracles.

The scan is the one that `latticecount.plan_count_and_sum` replaced: a
recursion that calls itself once per prefix of the last level, closes that
level by an arithmetic series, and adds every prefix coordinate times the
leaf's count to the sums.  It shares no code with the kernel beyond the
plan it reads, so the tests compare the two on bundled, random and
hand-built plans.  Like the kernel, it returns the sums in P's
coordinates: level j's sum is that of coordinate `plan.order[j]`.

`memo_keys` derives a plan's memo keys as `EnumerationPlan` once did,
with one `independent_rows` elimination per level, and `unmemoized`
strips them from a plan, so that a memoized scan can be checked against
the plain loop at dilations the per-leaf scan cannot reach.
"""

from toricsym import latticecount
from toricsym.latticecount import EnumerationPlan
from toricsym.linalg import independent_rows


def memo_keys(plan):
    """Per level 1 <= j <= n-2, the (level, row) pairs of the first basis of
    the prefix forms y_0..y_{j-1} of the rows at levels >= j, when those
    forms have rank < j; None otherwise."""
    n, levels = plan.dim, plan.levels
    keys = [None] * n
    for j in range(1, n - 1):
        rows = [
            (jj, r)
            for jj in range(j, n)
            for r, row in enumerate(levels[jj])
            if any(row.coeffs[:j])
        ]
        basis = independent_rows([levels[jj][r].coeffs[:j] for jj, r in rows])
        if len(basis) < j:
            keys[j] = tuple(rows[i] for i in basis)
    return tuple(keys)


def unmemoized(plan):
    """The plan with its memo keys stripped: every loop of its scans is plain."""
    stripped = EnumerationPlan(plan.dim, plan.levels, order=plan.order)
    keys = (None,) * plan.dim
    object.__setattr__(stripped, "memo_keys", keys)
    object.__setattr__(stripped, "tables", latticecount._scan_tables(plan.levels, keys))
    return stripped


def _scan_setup(plan, k):
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
                    ups.append((j, r, row.coeffs[i]))
        updates.append(ups)
    return divisors, res, updates


def _level_bounds(divisors_j, res_j):
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
    """(#points, coordinate sums) of the k-th dilation, one leaf at a time."""
    n = plan.dim
    if not all(c0 + ck * k >= 0 for c0, ck in plan.constants):
        return 0, (0,) * n
    divisors, res, updates = _scan_setup(plan, k)
    lo0, hi0 = _level_bounds(divisors[0], res[0])
    if lo0 is None or hi0 is None or lo0 > hi0:
        return 0, (0,) * n
    if n == 1:
        cnt = hi0 - lo0 + 1
        return cnt, ((hi0 + lo0) * cnt // 2,)

    count = 0
    sums = [0] * n
    prefix = [0] * (n - 1)
    last = n - 1

    def rec(j):
        nonlocal count
        lo, hi = _level_bounds(divisors[j], res[j])
        if lo is None or hi is None or lo > hi:
            return
        if j == last:
            c = hi - lo + 1
            count += c
            sums[j] += (hi + lo) * c // 2
            for i in range(last):
                sums[i] += prefix[i] * c
            return
        ups = updates[j]
        for jj, r, a in ups:
            res[jj][r] -= a * lo
        prefix[j] = lo
        rec(j + 1)
        x = lo
        while x < hi:
            x += 1
            for jj, r, a in ups:
                res[jj][r] -= a
            prefix[j] = x
            rec(j + 1)
        for jj, r, a in ups:
            res[jj][r] += a * hi

    ups0 = updates[0]
    for x0 in range(lo0, hi0 + 1):
        for jj, r, a in ups0:
            res[jj][r] -= a * x0
        prefix[0] = x0
        rec(1)
        for jj, r, a in ups0:
            res[jj][r] += a * x0
    return count, tuple(sums[plan.order.index(i)] for i in range(n))


def plan_points(plan, k):
    """The lattice points of the k-th dilation, in P's coordinates, in scan order."""
    n = plan.dim
    divisors, res, updates = _scan_setup(plan, k)
    prefix = [0] * n
    points = []

    def rec(j):
        lo, hi = _level_bounds(divisors[j], res[j])
        for x in range(lo, hi + 1):
            prefix[j] = x
            if j == n - 1:
                points.append(tuple(prefix[plan.order.index(i)] for i in range(n)))
                continue
            for jj, r, a in updates[j]:
                res[jj][r] -= a * x
            rec(j + 1)
            for jj, r, a in updates[j]:
                res[jj][r] += a * x

    rec(0)
    return points
