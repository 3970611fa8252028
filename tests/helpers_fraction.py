"""The Fraction routes that integer scaling replaced, kept as test oracles.

`toricsym.polytope` scales a point set once by the common denominator of
its coordinates and runs the hull and the plan build on integers.  Here
are the routes it replaced, which carry every coordinate
as a Fraction: the hull of a point set around the same double description
`extreme_rays`, a plan with one full hull per projection, a volume and
barycenter summed as Fractions simplex by simplex over the pulling
triangulation of `helpers_volume` (the library reads both off the
Ehrhart polynomials now), and the face fan's cones read back through a
dict keyed by Fraction vertices.  The tests compare the library's
routes with them exactly.
"""

from fractions import Fraction
from math import factorial

from helpers_volume import boundary_simplices
from toricsym.errors import ValidationError
from toricsym.latticecount import EnumerationPlan, PlanRow, coordinate_order
from toricsym.linalg import det, dot, gcd_vector, integer_row, rank
from toricsym.polytope import HPolytope, Polytope, VPolytope, extreme_rays


def affine_rank(points):
    """Dimension of the affine hull of the given points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    diffs = [tuple(Fraction(c) - Fraction(d) for c, d in zip(p, base)) for p in points[1:]]
    return rank(diffs)


def polytope_from_vertices(points):
    """conv(points) with Fraction points, facets read off `extreme_rays`."""
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    if not pts:
        raise ValidationError("empty point set")
    n = len(pts[0])
    if affine_rank(pts) < n:
        raise ValidationError("point set is not full-dimensional")

    flat, den = integer_row([x for p in pts for x in p])
    rows = [tuple(-x for x in flat[i:i + n]) + (1,) for i in range(0, len(flat), n)]
    facets = {}
    for ray in extreme_rays((), rows, n + 1):
        g = gcd_vector(ray[:n])
        normal = tuple(a // g for a in ray[:n])
        facets[(normal, Fraction(ray[n], den * g))] = frozenset(
            i for i, row in enumerate(rows) if dot(ray, row) == 0
        )

    ineqs = sorted(facets)
    every = frozenset(range(len(pts)))
    vertex_idx = [
        i
        for i in range(len(pts))
        if every.intersection(*(t for t in facets.values() if i in t)) == {i}
    ]
    renumber = {old: new for new, old in enumerate(vertex_idx)}
    vertices = tuple(pts[i] for i in vertex_idx)
    incidence = tuple(
        frozenset(renumber[i] for i in facets[key] if i in renumber)
        for key in ineqs
    )
    return Polytope(
        h=HPolytope(dim=n, inequalities=tuple(ineqs)),
        v=VPolytope(vertices=vertices),
        incidence=incidence,
    )


def face_fan_cones(points):
    """The maximal cones of the face fan of conv(points), as ray-index tuples.

    Each hull vertex goes back to its point through a dict keyed by
    Fraction tuples; every point must be a vertex.
    """
    hull = polytope_from_vertices(points)
    index_of = {tuple(Fraction(x) for x in p): i for i, p in enumerate(points)}
    return tuple(sorted(
        tuple(sorted(index_of[hull.vertices[i]] for i in tight)) for tight in hull.incidence
    ))


def build_plan(p):
    """The project-and-lift plan with one Fraction hull per projection.

    It scans the coordinates in the order `coordinate_order(p)`, as the
    integer route does, so the two plans are equal row for row.
    """
    n = p.dim
    order = coordinate_order(p)
    levels = []
    for j in range(n):
        if j == n - 1:
            facets = [(tuple(a[i] for i in order), b) for a, b in p.inequalities]
        else:
            projection = [tuple(v[i] for i in order[: j + 1]) for v in p.vertices]
            facets = polytope_from_vertices(projection).inequalities
        levels.append(tuple(
            PlanRow(coeffs=tuple(b.denominator * x for x in a), c0=0, ck=b.numerator)
            for a, b in facets
            if a[j]
        ))
    return EnumerationPlan(dim=n, levels=tuple(levels), order=order)


def volume_and_barycenter(p):
    """Volume and barycenter summed as Fractions over `helpers_volume`'s triangulation."""
    n = p.dim
    verts = p.vertices
    if affine_rank(verts) < n:
        raise ValidationError("polytope is lower-dimensional")
    fact = factorial(n)
    total = Fraction(0)
    moment = [Fraction(0)] * n

    for s in boundary_simplices(p):
        base = verts[s[0]]
        mat = tuple(
            tuple(verts[i][j] - base[j] for j in range(n)) for i in s[1:]
        )
        vol = abs(Fraction(det(mat))) / fact
        if vol == 0:
            continue
        centroid = tuple(
            sum(verts[i][j] for i in s) / Fraction(n + 1) for j in range(n)
        )
        total += vol
        for j in range(n):
            moment[j] += vol * centroid[j]
    if total == 0:
        raise ValidationError("degenerate polytope")
    return total, tuple(m / total for m in moment)
