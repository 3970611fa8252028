"""Fraction elimination routines, kept as a test oracle.

These are the routines that the fraction-free kernel of `toricsym.linalg`
and the project-and-lift `latticecount.build_plan` replaced: a Fraction
reduced row echelon form behind rank, kernel and inverse, a Bareiss
determinant with a Fraction fallback, a Fraction Gauss-Jordan solve, and the
Fourier-Motzkin plan build over Fractions.  The column Hermite form that
labelled the divisor classes before `linalg.hermite_form` is here too.
They share no code with the library routines, so the tests compare the two
on random and bundled inputs.
"""

from fractions import Fraction
from math import gcd

from toricsym.errors import InvariantViolation, UnboundedPolytopeError
from toricsym.latticecount import EnumerationPlan, PlanRow


def primitive_vector(v):
    """Positive multiple of a nonzero rational vector that is primitive in Z^n."""
    den = 1
    for e in v:
        den = den * e.denominator // gcd(den, e.denominator)
    w = [int(e * den) for e in v]
    g = 0
    for e in w:
        g = gcd(g, abs(e))
    return tuple(e // g for e in w)


def _rref(a):
    """Reduced row echelon form over Fraction. Returns (rows, pivot columns)."""
    rows = [list(map(Fraction, r)) for r in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [e - f * p for e, p in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def rank(a):
    if not a:
        return 0
    return len(_rref(a)[1])


def kernel_basis(a):
    """Primitive integer basis of the rational kernel of `a` (rows act on x)."""
    if not a:
        return ()
    n = len(a[0])
    rows, pivots = _rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(primitive_vector(v))
    return tuple(basis)


def invert_rational(a):
    """Exact inverse of a square nonsingular matrix, as Fractions."""
    n = len(a)
    rows, pivots = _rref([(*row, *(int(i == j) for j in range(n))) for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(r[n:]) for r in rows)


def det(a):
    """Exact determinant (fraction-free for integer input via Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    if any(isinstance(e, Fraction) and e.denominator != 1 for r in a for e in r):
        return _det_fraction(a)
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _det_fraction(a):
    n = len(a)
    m = [[Fraction(e) for e in r] for r in a]
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            result = -result
        result *= m[k][k]
        inv = Fraction(1) / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [e - f * p for e, p in zip(m[i], m[k])]
    return result


def solve_rational(a, b):
    """Solve a*x = b exactly; None when `a` is not square and nonsingular."""
    m = len(a)
    if m == 0 or len(b) != m:
        raise ValueError("incompatible shapes")
    n = len(a[0])
    if n != m:
        return None
    aug = [[Fraction(e) for e in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        inv = Fraction(1) / aug[k][k]
        aug[k] = [e * inv for e in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[k])]
    return tuple(r[n] for r in aug)


def column_hermite(rows):
    """Canonical column form (unique under right GL(r, Z)-action)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return tuple(tuple(r) for r in m)
    nrows, ncols = len(m), len(m[0])
    col = 0
    for row in range(nrows):
        if col >= ncols:
            break
        piv = None
        for j in range(col, ncols):
            if m[row][j] != 0:
                piv = j
                break
        if piv is None:
            continue
        for i in range(nrows):
            m[i][col], m[i][piv] = m[i][piv], m[i][col]
        while True:
            nz = [j for j in range(col + 1, ncols) if m[row][j] != 0]
            if not nz:
                break
            for j in nz:
                q = m[row][j] // m[row][col]
                for i in range(nrows):
                    m[i][j] -= q * m[i][col]
                if m[row][j] != 0:
                    for i in range(nrows):
                        m[i][col], m[i][j] = m[i][j], m[i][col]
        if m[row][col] < 0:
            for i in range(nrows):
                m[i][col] = -m[i][col]
        for j in range(col):
            q = m[row][j] // m[row][col]
            for i in range(nrows):
                m[i][j] -= q * m[i][col]
        col += 1
    return tuple(tuple(r) for r in m)


def _normalize_row(coeffs, c0, c1):
    """Scale to integers and divide out the gcd of the coefficients."""
    den = 1
    for x in (*coeffs, c0, c1):
        d = Fraction(x).denominator
        den = den * d // gcd(den, d)
    ic = [int(Fraction(x) * den) for x in coeffs]
    c0i = Fraction(c0) * den
    c1i = Fraction(c1) * den
    g = 0
    for x in ic:
        g = gcd(g, abs(x))
    if g > 1:
        ic = [x // g for x in ic]
        c0i = c0i / g
        c1i = c1i / g
    return tuple(ic), c0i, c1i


def _as_int(x):
    f = Fraction(x)
    if f.denominator != 1:
        raise InvariantViolation("plan row failed to normalize to integers")
    return int(f)


def build_plan(dim, rows, order=None):
    """Fourier-Motzkin elimination over Fractions.

    `rows` are (coeffs, c0, ck) triples, in the coordinates the plan scans;
    `order` maps them to P's coordinates, as `EnumerationPlan.order` does.
    Rows with the same primitive normal keep only the Pareto-tightest
    right-hand sides, and Imbert's rule drops derived rows that combine
    too many original ones.  Upper levels may be looser than the
    projection; the scan's width guard skips the prefixes that this lets
    through.
    """
    work = []
    for i, (coeffs, c0, ck) in enumerate(rows):
        coeffs = tuple(Fraction(c) for c in coeffs)
        work.append((coeffs, Fraction(c0), Fraction(ck), frozenset([i]), frozenset()))

    levels = [None] * dim
    constants = []

    for j in range(dim - 1, -1, -1):
        here, below, free = [], [], []
        for row in work:
            coeffs = row[0]
            if coeffs[j] != 0:
                here.append(row)
            elif any(coeffs[i] != 0 for i in range(j)):
                below.append(row)
            else:
                free.append((row[1], row[2]))
        constants.extend(free)

        pruned = {}
        for coeffs, c0, ck, hist, elim in here:
            key_coeffs, c0n, ckn = _normalize_row(coeffs[: j + 1], c0, ck)
            entry = pruned.setdefault(key_coeffs, [])
            dominated = False
            keep = []
            for (e0, e1, eh, ee) in entry:
                if e0 <= c0n and e1 <= ckn:
                    dominated = True
                    keep.append((e0, e1, eh, ee))
                elif not (c0n <= e0 and ckn <= e1):
                    keep.append((e0, e1, eh, ee))
            if not dominated:
                keep.append((c0n, ckn, hist, elim))
            pruned[key_coeffs] = keep
        level_rows = []
        here2 = []
        for key_coeffs, entries in sorted(pruned.items()):
            for c0n, ckn, hist, elim in entries:
                den = c0n.denominator * ckn.denominator // gcd(
                    c0n.denominator, ckn.denominator
                )
                level_rows.append(
                    PlanRow(
                        coeffs=tuple(x * den for x in key_coeffs),
                        c0=_as_int(c0n * den),
                        ck=_as_int(ckn * den),
                    )
                )
                here2.append((key_coeffs, c0n, ckn, hist, elim))
        if not any(r.coeffs[j] > 0 for r in level_rows) or not any(
            r.coeffs[j] < 0 for r in level_rows
        ):
            raise UnboundedPolytopeError(
                f"variable {j} is unbounded in the inequality system"
            )
        levels[j] = tuple(level_rows)

        new_rows = list(below)
        pos = [r for r in here2 if r[0][j] > 0]
        neg = [r for r in here2 if r[0][j] < 0]
        for pc, p0, p1, ph, pe in pos:
            for nc, n0, n1, nh, ne in neg:
                hist = ph | nh
                elim = pe | ne | {j}
                if len(hist) > len(elim) + 1:
                    continue
                a, b = pc[j], -nc[j]
                coeffs = tuple(
                    b * (pc[i] if i < len(pc) else 0) + a * (nc[i] if i < len(nc) else 0)
                    for i in range(j)
                ) + (Fraction(0),) * (dim - j)
                c0 = b * p0 + a * n0
                ck = b * p1 + a * n1
                new_rows.append((coeffs, c0, ck, hist, elim))
        work = new_rows

    scaled_constants = []
    for c0, ck in constants:
        c0, ck = Fraction(c0), Fraction(ck)
        den = c0.denominator * ck.denominator // gcd(
            c0.denominator, ck.denominator
        )
        scaled_constants.append((_as_int(c0 * den), _as_int(ck * den)))
    return EnumerationPlan(
        dim=dim,
        levels=tuple(levels),
        constants=tuple(scaled_constants),
        order=order,
    )
