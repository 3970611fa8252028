import random
from fractions import Fraction

import pytest

import helpers_linalg as oracle
from toricsym import linalg
from toricsym.errors import InvariantViolation
from toricsym.linalg import (
    SmithDecomposition,
    adjugate,
    det,
    identity,
    independent_rows,
    invariant_factors,
    invert_unimodular,
    is_unimodular,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
    solve_rational,
)


def test_snf_identity():
    dec = smith_normal_form(identity(2))
    assert dec.diagonal == (1, 1)
    assert dec.left == identity(2)
    assert dec.right == identity(2)


def test_snf_p2_pairing_matrix():
    # Pairing map of the projective plane: rows (1,0),(0,1),(-1,-1).
    # Hand row-reduction: rows 1,2 are pivots, row 3 = -(row1+row2), so the
    # image is a rank-2 direct summand and the cokernel is free of rank 1.
    a = ((1, 0), (0, 1), (-1, -1))
    dec = smith_normal_form(a)
    assert dec.diagonal == (1, 1)
    assert invariant_factors(a) == (1, 1)


def test_snf_weighted_pairing_matrix():
    # Rows (1,0),(0,1),(-1,-2): the relation v1 + 2 v2 + v3 = 0 gives
    # cokernel Z; the map (x, y, z) -> x + 2y + z kills both columns.
    a = ((1, 0), (0, 1), (-1, -2))
    dec = smith_normal_form(a)
    assert dec.diagonal == (1, 1)
    cols = list(zip(*a))
    for col in cols:
        assert col[0] + 2 * col[1] + col[2] == 0


def test_snf_checks_survive_optimized_mode(monkeypatch):
    # The reconstruction and unimodularity checks raise, so `python -O`
    # keeps them.
    a = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    with monkeypatch.context() as m:
        m.setattr(SmithDecomposition, "reconstruct", lambda self, a: identity(3))
        with pytest.raises(InvariantViolation, match="reconstruct"):
            smith_normal_form(a)
    monkeypatch.setattr(linalg, "is_unimodular", lambda a: False)
    with pytest.raises(InvariantViolation, match="unimodular"):
        smith_normal_form(a)


def test_snf_divisibility_and_reconstruction():
    a = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    dec = smith_normal_form(a)
    full = dec.reconstruct(a)
    for i in range(3):
        for j in range(3):
            assert full[i][j] == (dec.diagonal[i] if i == j else 0)
    nonzero = [x for x in dec.diagonal if x]
    for a_, b_ in zip(nonzero, nonzero[1:]):
        assert b_ % a_ == 0


def _random_unimodular(rng, n):
    m = [list(r) for r in identity(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(r) for r in m)


def test_invariant_factors_stable_under_unimodular_fuzz():
    rng = random.Random(20240817)
    for _ in range(30):
        rows = rng.randint(2, 4)
        cols = rng.randint(2, 4)
        a = tuple(
            tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows)
        )
        base = invariant_factors(a)
        u = _random_unimodular(rng, rows)
        v = _random_unimodular(rng, cols)
        assert invariant_factors(mat_mul(u, a)) == base
        assert invariant_factors(mat_mul(a, v)) == base
        assert invariant_factors(mat_mul(mat_mul(u, a), v)) == base


def test_is_unimodular():
    assert is_unimodular(identity(3))
    assert is_unimodular(((0, 1), (1, 0)))
    assert not is_unimodular(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        is_unimodular(((1, 0, 0), (0, 1, 0)))


def test_independent_rows_picks_the_first_basis():
    assert independent_rows(()) == ()
    assert independent_rows(((0, 0), (1, 2), (2, 4), (0, 1), (1, 3))) == (1, 3)
    rng = random.Random(7)
    for _ in range(50):
        a = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(1, 5)))
        basis = independent_rows(a)
        assert len(basis) == rank(a) == rank([a[i] for i in basis])
        # Each row outside the basis depends on the basis rows before it.
        for i in range(len(a)):
            before = [a[b] for b in basis if b < i]
            assert (i in basis) == (rank(before + [a[i]]) > len(before))


def test_solve_rational_identity_and_halves():
    assert solve_rational(identity(2), (3, 7)) == (3, 7)
    sol = solve_rational(((1, 1), (1, -1)), (1, 0))
    assert sol == (Fraction(1, 2), Fraction(1, 2))


def test_solve_rational_singular_is_none():
    assert solve_rational(((1, 1), (2, 2)), (1, 2)) is None
    assert solve_rational(((1, 1), (2, 2)), (1, 3)) is None


def test_solve_rational_shape_mismatch():
    with pytest.raises(ValueError):
        solve_rational(((1, 0), (0, 1)), (1, 2, 3))


def test_solve_rational_substitutes_back_exactly():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        b = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n))
        x = solve_rational(a, b)
        if x is None:
            assert det(a) == 0
            continue
        assert mat_vec(a, x) == b


def test_kernel_basis_members_annihilate():
    a = ((1, 2, 3), (2, 4, 6))
    basis = kernel_basis(a)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(a, v) == (0, 0)


def _random_matrix(rng):
    """1-7 rows and columns of small ints or Fractions, often square, with
    zero rows and rows that are combinations of earlier ones mixed in."""
    m = rng.randint(1, 7)
    n = m if rng.random() < 0.5 else rng.randint(1, 7)
    rational = rng.random() < 0.5
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1:
            row = (0,) * n
        elif kind < 0.25 and rows:
            c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
            r1, r2 = rng.choice(rows), rng.choice(rows)
            row = tuple(c1 * x + c2 * y for x, y in zip(r1, r2))
        elif rational:
            row = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
        else:
            row = tuple(rng.randint(-5, 5) for _ in range(n))
        rows.append(row)
    return tuple(rows)


def test_kernel_matches_fraction_oracle_on_random_matrices():
    rng = random.Random(19680601)
    square = singular = integral = 0
    for _ in range(2000):
        a = _random_matrix(rng)
        m, n = len(a), len(a[0])
        assert rank(a) == oracle.rank(a)
        assert kernel_basis(a) == oracle.kernel_basis(a)
        if m != n:
            continue
        square += 1
        d = det(a)
        assert d == oracle.det(a)
        b = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        assert solve_rational(a, b) == oracle.solve_rational(a, b)
        if not all(type(e) is int for row in a for e in row):
            continue  # the adjugate is taken of integer matrices only
        integral += 1
        if d == 0:
            singular += 1
            with pytest.raises(ValueError):
                adjugate(a)
            continue
        adj, value = adjugate(a)
        assert value == d
        assert adj == tuple(tuple(d * x for x in r) for r in oracle.invert_rational(a))
        if d in (1, -1):
            assert invert_unimodular(a) == oracle.invert_rational(a)
        else:
            with pytest.raises(ValueError):
                invert_unimodular(a)
    assert square > 900 and integral > 400 and singular > 100


def test_result_types_are_kept():
    assert type(det(((2, 1), (1, 1)))) is int
    assert type(det(((Fraction(1, 2), 0), (0, 4)))) is Fraction
    assert all(type(x) is Fraction for x in solve_rational(identity(2), (3, 7)))
