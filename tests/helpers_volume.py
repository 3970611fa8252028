"""The triangulated volume and barycenter, kept as a test oracle.

`toricsym.polytope.volume_and_barycenter` reads vol(P) and Bc(P) off the
leading coefficients of P's weighted Ehrhart polynomials.  Here is the
route it replaced: a pulling triangulation from the lexicographically
smallest vertex, summed over integer determinants.  It scans nothing and
shares no cache with the library, so the tests compare the two exactly.
"""

from fractions import Fraction
from math import factorial

from toricsym.errors import ValidationError
from toricsym.linalg import det, dot, vec_sub
from toricsym.polytope import _scaled


def face_children(face, incidence):
    """Facets of a face, as maximal proper intersections with polytope facets."""
    children = {face & tight for tight in incidence} - {face, frozenset()}
    return [c for c in children if not any(c < other for other in children)]


def boundary_simplices(p):
    """Triangulate the polytope into simplices (as vertex index tuples).

    Cones each recursively triangulated facet not through it to the
    lexicographically smallest vertex of the face; vertices are already
    sorted, so vertex 0 is the apex of every simplex.
    """
    memo = {}

    def tri(face, d):
        if face not in memo:
            idx = sorted(face)
            memo[face] = [tuple(idx)] if len(idx) == d + 1 else [
                (idx[0],) + s
                for child in face_children(face, p.incidence)
                if idx[0] not in child
                for s in tri(child, d - 1)
            ]
        return memo[face]

    return tri(frozenset(range(len(p.vertices))), p.dim)


def volume_and_barycenter(p):
    """Exact volume and barycenter of P, summed over `boundary_simplices`.

    On the vertices scaled to integer points by their common denominator
    D, each simplex adds its integer |det| to the weight of each of its
    vertices; vertex 0 is in every simplex, so its weight w_0 is the
    total.  The volume is w_0 / (n! D^n) and the barycenter
    sum(w_i v_i) / ((n+1) D w_0).
    """
    n = p.dim
    den, verts = _scaled(p.vertices)
    diffs = [vec_sub(v, verts[0]) for v in verts]
    weights = [0] * len(verts)
    for s in boundary_simplices(p):
        w = abs(det([diffs[i] for i in s[1:]]))
        for i in s:
            weights[i] += w
    total = weights[0]
    if total == 0:
        raise ValidationError("polytope is lower-dimensional")
    return Fraction(total, factorial(n) * den**n), tuple(
        Fraction(dot(weights, col), (n + 1) * den * total) for col in zip(*verts)
    )
