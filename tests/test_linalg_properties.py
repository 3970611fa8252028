"""Identities that the elimination kernels of `toricsym.linalg` must satisfy.

They hold for every matrix, so hypothesis draws the matrices: integer and
rational entries, square and rectangular shapes, singular ones included.
"""

import random
from itertools import combinations
from math import gcd, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from helpers_linalg import column_hermite
from helpers_reflexive import random_unimodular
from toricsym.linalg import (
    adjugate,
    det,
    hermite_form,
    identity,
    is_unimodular,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
    smith_normal_form,
    transpose,
)

ENTRIES = st.one_of(
    st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6)
)
# Integer entries, with a sparse mix: zero rows, zero columns and echelon
# shapes are where the Hermite and Smith forms branch.
INTEGERS = st.one_of(st.integers(-6, 6), st.just(0))


@st.composite
def matrices(draw, rows=st.integers(1, 6), cols=None, entries=ENTRIES):
    m = draw(rows)
    n = m if cols is None else draw(cols)
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(m))


@settings(max_examples=60, deadline=None)
@given(a=matrices(rows=st.integers(2, 6)), seed=st.integers(0, 2**32), size=st.integers(1, 12))
def test_det_is_multiplicative_under_unimodular_maps(a, seed, size):
    u = random_unimodular(random.Random(seed), size, len(a))
    assert det(u) in (1, -1)
    assert det(mat_mul(u, a)) == det(u) * det(a)


@settings(max_examples=60, deadline=None)
@given(a=matrices(entries=st.integers(-6, 6)))
def test_inverse_is_a_right_inverse(a):
    # adj(a) / det(a) is the inverse, from both sides.
    d = det(a)
    assume(d != 0)
    adj, value = adjugate(a)
    assert value == d
    scaled = tuple(tuple(d * x for x in row) for row in identity(len(a)))
    assert mat_mul(a, adj) == scaled == mat_mul(adj, a)


@settings(max_examples=60, deadline=None)
@given(a=matrices(cols=st.integers(1, 6)))
def test_kernel_basis_has_full_dimension_and_is_annihilated(a):
    basis = kernel_basis(a)
    assert len(basis) == len(a[0]) - rank(a)
    for v in basis:
        assert mat_vec(a, v) == (0,) * len(a)


def is_hermite(h):
    """Row echelon with positive pivots, entries above a pivot in 0..pivot-1,
    zero rows last: the conditions that make the row Hermite form unique."""
    last = -1
    for i, row in enumerate(h):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            return not any(any(r) for r in h[i:])
        if c <= last or row[c] <= 0 or any(not 0 <= r[c] < row[c] for r in h[:i]):
            return False
        last = c
    return True


@settings(max_examples=150, deadline=None)
@given(a=matrices(cols=st.integers(1, 6), entries=INTEGERS))
def test_hermite_form_is_a_unimodular_reduction_to_normal_form(a):
    h, u = hermite_form(a)
    assert is_unimodular(u)
    assert mat_mul(u, a) == h
    assert is_hermite(h)


@settings(max_examples=60, deadline=None)
@given(
    a=matrices(rows=st.integers(2, 6), cols=st.integers(1, 6), entries=INTEGERS),
    seed=st.integers(0, 2**32),
)
def test_hermite_form_is_unique_on_the_row_lattice(a, seed):
    # U*a has the same row lattice as a, so the same Hermite form.
    u = random_unimodular(random.Random(seed), 8, len(a))
    assert hermite_form(mat_mul(u, a))[0] == hermite_form(a)[0]


@settings(max_examples=150, deadline=None)
@given(a=matrices(cols=st.integers(1, 6), entries=INTEGERS))
def test_transposed_hermite_form_is_the_column_form(a):
    assert transpose(hermite_form(transpose(a))[0]) == column_hermite(a)


def determinantal_divisors(a):
    """d_k = gcd of the k x k minors, for k = 1..min(m, n) (0 when all vanish)."""
    m, n = len(a), len(a[0])
    return [
        gcd(*(det(tuple(tuple(a[i][j] for j in cols) for i in rows))
              for rows in combinations(range(m), k) for cols in combinations(range(n), k)))
        for k in range(1, min(m, n) + 1)
    ]


@settings(max_examples=150, deadline=None)
@given(a=matrices(rows=st.integers(1, 5), cols=st.integers(1, 5), entries=INTEGERS))
def test_smith_diagonal_is_the_determinantal_divisor_identity(a):
    # d_1 * ... * d_k is the gcd of the k x k minors.
    diag = smith_normal_form(a).diagonal
    assert [prod(diag[:k]) for k in range(1, len(diag) + 1)] == determinantal_divisors(a)
