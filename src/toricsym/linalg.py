"""Exact integer and rational linear algebra.

Vectors are tuples, matrices are tuples of row tuples.  Entries are Python
ints or `fractions.Fraction`; nothing in this module (or anywhere else in
the package) touches floating point, so every result is exact.

Rank, kernel, determinant, solve and the integer adjugate all go through
one fraction-free Gauss-Jordan elimination (Bareiss 1968): a row with a
Fraction is scaled to integers once by the lcm of its denominators
(`integer_row`), and after that every division is exact.  Rank, independent
rows and determinant stop at the forward sweep below each pivot.
The Smith normal form keeps its own unimodular reduction.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import InvariantViolation


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


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = diag(diagonal), with U, V unimodular.

    The diagonal holds the invariant factors: nonnegative, each dividing
    the next (zeros trail).
    """

    left: tuple
    diagonal: tuple
    right: tuple

    def reconstruct(self, a):
        """U*A*V, for checking against the stored diagonal."""
        return mat_mul(mat_mul(self.left, a), self.right)


def smith_normal_form(a):
    """Smith normal form by repeated gcd pivoting.

    Works entirely over the integers, accumulating the left and right
    transforms explicitly.  Matrices here are tiny, so no modular or
    pivot-growth tricks are needed.
    """
    if not a or not a[0]:
        raise ValueError("matrix must be nonempty")
    m, n = len(a), len(a[0])
    d = [list(r) for r in a]
    u = [list(r) for r in identity(m)]
    v = [list(r) for r in identity(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in d:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    for t in range(min(m, n)):
        while True:
            piv = min(
                ((i, j) for i in range(t, m) for j in range(t, n) if d[i][j] != 0),
                key=lambda ij: abs(d[ij[0]][ij[1]]),
                default=None,
            )
            if piv is None:
                break
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    dirty = dirty or d[i][t] != 0
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    dirty = dirty or d[t][j] != 0
            if not dirty:
                break
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

    # Enforce the divisibility chain d_t | d_{t+1}.
    k = min(m, n)
    changed = True
    while changed:
        changed = False
        for t in range(k - 1):
            x, y = d[t][t], d[t + 1][t + 1]
            if x != 0 and y % x != 0 or (x == 0 and y != 0):
                col_op(t, t + 1, -1)  # col_t += col_{t+1}
                # Re-clear the 2x2 block with gcd pivoting.
                while d[t + 1][t] != 0 or d[t][t + 1] != 0:
                    if d[t + 1][t] != 0:
                        if d[t][t] == 0 or (d[t][t] != 0 and abs(d[t + 1][t]) < abs(d[t][t])):
                            swap_rows(t, t + 1)
                        if d[t + 1][t] != 0 and d[t][t] != 0:
                            row_op(t + 1, t, d[t + 1][t] // d[t][t])
                    if d[t][t + 1] != 0:
                        if d[t][t] == 0 or (d[t][t] != 0 and abs(d[t][t + 1]) < abs(d[t][t])):
                            swap_cols(t, t + 1)
                        if d[t][t + 1] != 0 and d[t][t] != 0:
                            col_op(t + 1, t, d[t][t + 1] // d[t][t])
                for s in (t, t + 1):
                    if d[s][s] < 0:
                        d[s] = [-x for x in d[s]]
                        u[s] = [-x for x in u[s]]
                changed = True

    diag = tuple(d[t][t] for t in range(k))
    left = tuple(tuple(r) for r in u)
    right = tuple(tuple(r) for r in v)
    dec = SmithDecomposition(left=left, diagonal=diag, right=right)
    full = dec.reconstruct(a)
    if any(
        full[i][j] != (diag[i] if i == j and i < k else 0)
        for i in range(m)
        for j in range(n)
    ):
        raise InvariantViolation("Smith decomposition failed to reconstruct")
    if not (is_unimodular(left) and is_unimodular(right)):
        raise InvariantViolation("Smith transforms are not unimodular")
    return dec


def invariant_factors(a):
    return tuple(x for x in smith_normal_form(a).diagonal if x != 0)
