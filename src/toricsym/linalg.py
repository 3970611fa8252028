"""Exact integer and rational linear algebra.

Vectors are tuples, matrices are tuples of row tuples.  Entries are Python
ints or `fractions.Fraction`; nothing in this module (or anywhere else in
the package) touches floating point, so every result is exact.

There are two elimination kernels.  Rank, independent rows, kernel,
determinant, solve and the integer adjugate go through one fraction-free
Gauss-Jordan elimination over Q (Bareiss 1968): a row with a Fraction is
scaled to integers once by the lcm of its denominators (`integer_row`), and
after that every division is exact.  Rank, independent rows and determinant
stop at the forward sweep below each pivot.  Unimodular reduction over Z is
the row Hermite normal form (`hermite_form`); the Smith normal form
alternates it on the rows and the columns (Cohen, GTM 138, 2.4).
"""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import InvariantViolation
from .record import Record


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_vec(a, x):
    return tuple([sum(map(mul, r, x)) for r in a])


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def vec_sub(x, y):
    return tuple(p - q for p, q in zip(x, y))


def vec_scale(c, x):
    return tuple(c * p for p in x)


def dot(x, y):
    return sum(map(mul, x, y))


def gcd_vector(v):
    return gcd(*v)


def integer_row(v):
    """(w, den): w = den * v is integral for the least positive integer den."""
    if all(type(e) is int for e in v):
        return tuple(v), 1
    den = lcm(*(e.denominator for e in v))
    return tuple(int(e * den) for e in v), den


def primitive_vector(v):
    """Scale a nonzero rational vector to a primitive integer vector.

    The sign is kept: the result is a positive multiple of the input.
    """
    w, _ = integer_row(v)
    g = gcd(*w)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(e // g for e in w)


def _gauss_jordan(a, reduced=True):
    """Fraction-free Gauss-Jordan elimination of the rows of `a`.

    Returns (rows, pivots, d, det).  With `reduced`, the first
    len(pivots) integer rows are d times the reduced row echelon form of
    `a` and the rest are zero.  Without it only the entries right of each
    pivot in the rows below it are updated (the forward Bareiss sweep),
    which is all that the pivots, d and det need; the rows are then not
    meant to be read.  d is the last pivot, a minor of the integer-scaled
    rows, and 1 when there is no pivot.  `det` is the determinant of `a`
    when `a` is square and nonsingular.  An all-`int` matrix costs one
    type check and no scaling.
    """
    if {type(e) for r in a for e in r} <= {int}:
        rows, scale = [list(r) for r in a], 1
    else:
        scaled = [integer_row(r) for r in a]
        rows, scale = [list(w) for w, _ in scaled], prod(den for _, den in scaled)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots, sign, d = [], 1, 1
    for c in range(n):
        k = len(pivots)
        for piv in range(k, m):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        p = top[c]
        first, cols = (0, range(n)) if reduced else (k + 1, range(c + 1, n))
        for i in range(first, m):
            if i != k:
                row = rows[i]
                f = row[c]
                for j in cols:  # exact: every entry is a minor of the scaled rows
                    row[j] = (p * row[j] - f * top[j]) // d
        d = p
        pivots.append(c)
        if k + 1 == m:
            break
    return rows, pivots, d, sign * d if scale == 1 else Fraction(sign * d, scale)


def rank(a):
    if not a:
        return 0
    return len(_gauss_jordan(a, reduced=False)[1])


def independent_rows(a):
    """Indices of the first maximal linearly independent subset of a's rows.

    They are the pivot columns of the transpose, so there are rank(a).
    """
    return tuple(_gauss_jordan(transpose(a), reduced=False)[1]) if a else ()


def kernel_basis(a):
    """Primitive integer basis of the rational kernel of `a` (rows act on x)."""
    if not a:
        return ()
    n = len(a[0])
    rows, pivots, d, _ = _gauss_jordan(a)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = d
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(primitive_vector(v if d > 0 else vec_scale(-1, v)))
    return tuple(basis)


def det(a):
    """Exact determinant: an int when every entry is integral, else a Fraction."""
    if not a:
        return 1
    _, pivots, _, value = _gauss_jordan(a, reduced=False)
    return value if len(pivots) == len(a) else 0


def is_unimodular(a):
    """True iff the square integer matrix has determinant +-1."""
    if not a or len(a) != len(a[0]):
        raise ValueError("unimodularity is defined for square matrices only")
    return det(a) in (1, -1)


def solve_rational(a, b):
    """Solve a*x = b exactly.

    Returns the unique solution as a tuple of Fractions when `a` is square
    and nonsingular, and None otherwise (the designated "no unique
    solution" outcome).  Shape mismatches raise ValueError.
    """
    m = len(a)
    if m == 0 or len(b) != m:
        raise ValueError("incompatible shapes")
    if len(a[0]) != m:
        return None
    rows, pivots, d, _ = _gauss_jordan([(*row, e) for row, e in zip(a, b)])
    if pivots != list(range(m)):
        return None
    return tuple(Fraction(r[m], d) for r in rows)


def adjugate(a):
    """(adj(a), det(a)) of a square nonsingular integer matrix.

    a * adj(a) = det(a) * I, so the inverse is adj(a) / det(a).  The
    reduced elimination of [a | I] leaves d * a^-1 on the right, with d
    the last pivot, which is +-det(a).  ValueError when a is singular.
    """
    n = len(a)
    rows, pivots, d, value = _gauss_jordan([(*row, *unit) for row, unit in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    s = value // d
    return tuple(tuple(s * x for x in r[n:]) for r in rows), value


def invert_unimodular(a):
    """Exact integer inverse of a unimodular matrix; ValueError otherwise."""
    adj, d = adjugate(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(d * x for x in row) for row in adj)


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def hermite_form(a):
    """(H, U): the row Hermite normal form H of the integer matrix a, U*a = H.

    U is unimodular.  H is in row echelon form with positive pivots, each
    entry above a pivot lies in 0..pivot-1, and zero rows come last; these
    make H unique (Cohen, GTM 138, 2.4.2).  Column by column, the pivot row
    takes the gcd of the entries below it, by exact elimination when the
    pivot divides an entry and by a 2x2 extended-gcd step otherwise.  The
    row operations act on [a | I], whose right block ends as U.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    w = [list(row) + list(unit) for row, unit in zip(a, identity(m))]
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            x, y = w[r][c], w[i][c]
            if not y:
                continue
            if x and y % x == 0:
                q = y // x
                w[i] = [e - q * f for e, f in zip(w[i], w[r])]
                continue
            # [[s, t], [-y/g, x/g]] has determinant 1 and clears w[i][c].
            g, s, t = _xgcd(x, y)
            p, q = x // g, y // g
            w[r], w[i] = (
                [s * e + t * f for e, f in zip(w[r], w[i])],
                [p * f - q * e for e, f in zip(w[r], w[i])],
            )
        pivot = w[r][c]
        if not pivot:
            continue
        if pivot < 0:
            pivot = -pivot
            w[r] = [-e for e in w[r]]
        for i in range(r):
            q = w[i][c] // pivot
            if q:
                w[i] = [e - q * f for e, f in zip(w[i], w[r])]
        r += 1
    return tuple(tuple(row[:n]) for row in w), tuple(tuple(row[n:]) for row in w)


class SmithDecomposition(Record):
    """U * A * V = diag(diagonal), with U, V unimodular.

    The diagonal holds the invariant factors: nonnegative, each dividing
    the next (zeros trail).
    """

    __slots__ = ("left", "diagonal", "right")

    def reconstruct(self, a):
        """U*A*V, for checking against the stored diagonal."""
        return mat_mul(mat_mul(self.left, a), self.right)


def _is_diagonal(d):
    return not any(x for i, r in enumerate(d) for j, x in enumerate(r) if i != j)


def smith_normal_form(a):
    """Smith normal form from alternating row and column Hermite forms.

    The row form of D, then the row form of D^T, replace D until it is
    diagonal (Kannan and Bachem 1979; Cohen, GTM 138, 2.4.14).  Each form
    replaces a leading pivot by the gcd of its column, or of its row, so
    a pivot only shrinks, and it stays the same only once its row and
    column are clear.  The diagonal's nonzero entries then lead, and one
    extended-gcd step per pair of them, diag(x, y) -> diag(g, xy/g), makes
    each divide the next.
    """
    if not a or not a[0]:
        raise ValueError("matrix must be nonempty")
    m, n = len(a), len(a[0])
    d, left = hermite_form(a)
    right = identity(n)
    while not _is_diagonal(d):
        h, w = hermite_form(transpose(d))
        d, right = transpose(h), mat_mul(right, transpose(w))
        if _is_diagonal(d):
            break
        d, w = hermite_form(d)
        left = mat_mul(w, left)

    diag = [d[t][t] for t in range(min(m, n))]
    left, right = [list(r) for r in left], [list(r) for r in right]
    nonzero = sum(1 for x in diag if x)
    for i in range(nonzero):
        for j in range(i + 1, nonzero):
            x, y = diag[i], diag[j]
            if y % x == 0:
                continue
            # U' = [[s, t], [-y/g, x/g]] on rows i, j of U and
            # V' = [[1, -t*y/g], [1, s*x/g]] on columns i, j of V give
            # U' diag(x, y) V' = diag(g, xy/g); both have determinant 1.
            g, s, t = _xgcd(x, y)
            p, q = x // g, y // g
            ri, rj = left[i], left[j]
            left[i] = [s * e + t * f for e, f in zip(ri, rj)]
            left[j] = [p * f - q * e for e, f in zip(ri, rj)]
            for row in right:
                ci, cj = row[i], row[j]
                row[i], row[j] = ci + cj, s * p * cj - t * q * ci
            diag[i], diag[j] = g, p * y

    diag = tuple(diag)
    k = len(diag)
    dec = SmithDecomposition(
        left=tuple(map(tuple, left)), diagonal=diag, right=tuple(map(tuple, right))
    )
    full = dec.reconstruct(a)
    if any(
        full[i][j] != (diag[i] if i == j and i < k else 0)
        for i in range(m)
        for j in range(n)
    ):
        raise InvariantViolation("Smith decomposition failed to reconstruct")
    if not (is_unimodular(dec.left) and is_unimodular(dec.right)):
        raise InvariantViolation("Smith transforms are not unimodular")
    return dec


def invariant_factors(a):
    return tuple(x for x in smith_normal_form(a).diagonal if x != 0)
