"""Identities that the elimination kernel of `toricsym.linalg` must satisfy.

They hold for every matrix, so hypothesis draws the matrices: integer and
rational entries, square and rectangular shapes, singular ones included.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from helpers_reflexive import random_unimodular
from toricsym.linalg import (
    adjugate,
    det,
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    rank,
)

ENTRIES = st.one_of(
    st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6)
)


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
