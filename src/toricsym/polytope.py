"""Exact rational polytopes: dual description, faces, volume, barycenter.

Both descriptions are always carried together: facet inequalities
(integer normals, rational right-hand sides, meaning <y, normal> <= rhs)
and the irredundant vertex list, linked by a facet x vertex incidence
table.  Vertices and right-hand sides are Fractions, but only at the API
edge: a point set is scaled once by the common denominator D of its
coordinates (`_scaled`), and the hull runs on those integer points.  A
Fraction is made only for a returned vertex or right-hand side.  The
volume and the barycenter are the leading coefficients of the weighted
Ehrhart polynomials that `latticecount` interpolates
(`volume_and_barycenter`).
Coordinates must be exact: an int, a Fraction or a string that Fraction
reads.  A float raises ValidationError, since 0.1 is not 1/10.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import UnboundedPolytopeError, ValidationError
from .linalg import (
    adjugate,
    dot,
    gcd_vector,
    independent_rows,
    integer_row,
    kernel_basis,
    primitive_vector,
    rank,
    vec_scale,
)
from .record import Record


def _exact(x):
    """x as an int or a Fraction; a float is refused, as it is not exact."""
    if isinstance(x, float):
        raise ValidationError(f"coordinate {x!r} is a float; give an int, a Fraction or a string")
    try:
        return x if type(x) in (int, Fraction) else Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValidationError(f"coordinate {x!r} is not an exact number") from None


def _scaled(points):
    """(D, the integer points D*p): D is the least common denominator."""
    pts = [tuple(map(_exact, p)) for p in points]
    den = lcm(*{x.denominator for p in pts for x in p})
    return den, [tuple(x.numerator * (den // x.denominator) for x in p) for p in pts]


class HPolytope(Record):
    """Inequality description: <y, normal> <= rhs for each (normal, rhs)."""

    __slots__ = (
        "dim",
        "inequalities",  # of (normal: tuple[int], rhs: Fraction)
    )

    @staticmethod
    def make(dim, inequalities):
        """A row with a fractional normal is scaled to the equivalent integer one."""
        ineqs = []
        for normal, rhs in inequalities:
            if len(normal) != dim:
                raise ValidationError("inequality normal has wrong dimension")
            normal, den = integer_row(tuple(map(_exact, normal)))
            ineqs.append((normal, Fraction(_exact(rhs)) * den))
        return HPolytope(dim=dim, inequalities=tuple(ineqs))


class VPolytope(Record):
    """Irredundant vertex list."""

    __slots__ = (
        "vertices",  # of tuple[Fraction]
    )


class Polytope(Record):
    """Paired H- and V-description with facet x vertex incidence.

    `incidence[i]` is the frozenset of vertex indices lying on facet i:
    exactly {j : <vertices[j], normal_i> = rhs_i}, no more and no fewer.
    `latticecount.build_plan` relies on that, as it reads the vertices on
    each facet off this table and never evaluates a row at a vertex; every
    constructor here and in `fan` keeps it.  `dropped_inequalities`
    records redundant input rows removed during vertex enumeration;
    equality, the hash and the repr ignore it.
    """

    __slots__ = (
        "h",
        "v",
        "incidence",  # of frozenset[int]
        "dropped_inequalities",
    )
    _compare = ("h", "v", "incidence")

    def __init__(self, h, v, incidence, dropped_inequalities=()):
        Record.__init__(self, h, v, incidence, dropped_inequalities)

    @property
    def dim(self):
        return self.h.dim

    @property
    def vertices(self):
        return self.v.vertices

    @property
    def inequalities(self):
        return self.h.inequalities


def extreme_rays(eqs, ineqs, n):
    """Primitive extreme rays of the pointed cone {x : eqs.x = 0, ineqs.x >= 0}.

    Integer double description (Motzkin et al. 1953; Fukuda and Prodon,
    "Double description method revisited", 1996).  In a basis of the
    solutions of `eqs` it starts from the simplicial cone on the first d
    independent rows (`independent_rows`), then adds the other rows one at
    a time.  A ray on the positive side of the new row and one on its
    negative side are combined only when they are adjacent: their common
    zero set has at least d-2 rows and no third ray vanishes on all of it.
    Every new ray is made primitive.  The start rays are the columns of the
    adjugate of the start rows, so every number stays an integer.  The rays
    come back sorted; ValueError means the cone is not pointed.
    """
    basis = kernel_basis(eqs) if eqs else None
    d = len(basis) if eqs else n
    if d == 0:
        return ()
    rows = [tuple(dot(u, b) for b in basis) for u in ineqs] if eqs else ineqs
    rows = [r for r in rows if any(r)]
    start = independent_rows(rows)
    if len(start) < d:
        raise ValueError("cone is not pointed")

    # Column i of the adjugate of the start rows, times the sign of their
    # determinant, is positive on start row i and 0 on the others.  A ray is
    # (y, bitmask of the added rows that vanish on y).
    adj, det_start = adjugate([rows[i] for i in start])
    sign = 1 if det_start > 0 else -1
    rays = [
        (tuple(sign * e for e in primitive_vector(y)), sum(1 << j for j in start if j != i))
        for i, y in zip(start, zip(*adj))
    ]
    for k, row in enumerate(rows):
        if k in start:
            continue
        bit = 1 << k
        pos, neg, kept = [], [], []
        for y, z in rays:
            s = dot(row, y)
            if s > 0:
                pos.append((s, y, z))
                kept.append((y, z))
            elif s < 0:
                neg.append((s, y, z))
            else:
                kept.append((y, z | bit))
        for sp, p, zp in pos:
            for sq, q, zq in neg:
                z = zp & zq
                if z.bit_count() < d - 2 or any(
                    zr & z == z and zr != zp and zr != zq for _, zr in rays
                ):
                    continue
                y = tuple(sp * b - sq * a for a, b in zip(p, q))  # dot(row, y) = 0
                kept.append((primitive_vector(y), z | bit))
        rays = kept
    if not eqs:
        return tuple(sorted(y for y, _ in rays))
    return tuple(sorted(
        primitive_vector([sum(c * b[j] for c, b in zip(y, basis)) for j in range(n)])
        for y, _ in rays
    ))


def vertices_from_inequalities(h):
    """Vertices of {y : <y, normal> <= rhs}, by double description.

    The vertices are the rays (x, t) with t > 0 of the homogenised cone
    {(x, t) : t >= 0, rhs*t - <normal, x> >= 0}, scaled to t = 1.  Raises
    UnboundedPolytopeError for a nontrivial recession cone (a ray with
    t = 0, or normals that do not span) and ValidationError when the
    feasible set is empty or not full-dimensional.  Redundant inequalities
    are dropped and reported on the result.
    """
    n = h.dim
    ineqs = h.inequalities
    if rank([a for a, _ in ineqs]) < n:
        raise UnboundedPolytopeError("inequality system is unbounded")
    rows = [(0,) * n + (1,)]
    for normal, rhs in ineqs:
        rows.append(tuple(-a * rhs.denominator for a in normal) + (rhs.numerator,))
    rays = extreme_rays((), rows, n + 1)
    if any(ray[n] == 0 for ray in rays):
        raise UnboundedPolytopeError("inequality system is unbounded")
    if not rays:
        raise ValidationError("inequality system has empty interior")
    # The vertices x/t span affinely exactly when the rays (x, t) span.
    if rank(rays) <= n:
        raise ValidationError("feasible set is not full-dimensional")
    vertices, rays = zip(
        *sorted((tuple(Fraction(x, ray[n]) for x in ray[:n]), ray) for ray in rays)
    )

    kept = []
    dropped = []
    incidence = []
    seen = set()
    tights = [
        frozenset(i for i, ray in enumerate(rays) if dot(row, ray) == 0)
        for row in rows[1:]
    ]
    every = frozenset(range(len(vertices)))
    for (normal, rhs), row, tight in zip(ineqs, rows[1:], tights):
        # Every facet is cut out by some row, so a row cuts out a smaller
        # face exactly when another row's proper face contains it.  Two rows
        # are the same inequality when their primitive forms agree.
        if not tight or any(tight < other < every for other in tights):
            dropped.append((normal, rhs))
            continue
        canon = primitive_vector(row)
        if canon in seen:
            dropped.append((normal, rhs))
            continue
        seen.add(canon)
        kept.append((normal, Fraction(rhs)))
        incidence.append(tight)

    return Polytope(
        h=HPolytope(dim=n, inequalities=tuple(kept)),
        v=VPolytope(vertices=vertices),
        incidence=tuple(incidence),
        dropped_inequalities=tuple(dropped),
    )


def _facets(points, n):
    """Facets (normal, c), meaning normal.y <= c, of conv(points) in Z^n.

    The points are distinct and integral.  The facets are the extreme rays
    (a, c) of the cone {(a, c) : c - a.p >= 0 for every point p}
    (`extreme_rays`), divided by gcd(a): the normal is primitive, and c
    stays an integer since some point lies on the facet.  The cone is
    pointed exactly when the points are full-dimensional; otherwise
    ValidationError.  Its one caller is `hull_incidence`.
    """
    try:
        rays = extreme_rays((), [tuple(-x for x in p) + (1,) for p in points], n + 1)
    except ValueError:
        raise ValidationError("point set is not full-dimensional") from None
    facets = []
    for ray in rays:
        g = gcd_vector(ray[:n])
        facets.append((tuple(a // g for a in ray[:n]), ray[n] // g))
    return facets


def hull_incidence(pts, n):
    """(facets, tights) of conv(pts) for distinct integer points in Z^n.

    The facets (normal, c) are sorted (`_facets`); tights[j] is the
    frozenset of indices of the points on facet j, vertices or not.  It
    serves `polytope_from_vertices` and, for a fan with explicit cones,
    `fan.polytope_from_fan`; the incidence both read off it is the one
    `latticecount.build_plan` trusts.
    """
    facets = sorted(_facets(pts, n))
    return facets, [frozenset(i for i, q in enumerate(pts) if dot(a, q) == c) for a, c in facets]


def polytope_from_vertices(points):
    """Build the paired description of conv(points).

    The points are scaled once by their common denominator D, and the
    facets normal.y <= c of the integer hull (`hull_incidence`) become
    normal.x <= c/D.  The vertices and the right-hand sides are the only
    Fractions made.  Input points interior to the hull (or to a face) are
    discarded.
    """
    den, scaled = _scaled(points)
    pts = sorted(set(scaled))
    if not pts:
        raise ValidationError("empty point set")
    n = len(pts[0])
    if any(len(q) != n for q in pts):
        raise ValidationError("points have different dimensions")
    facets, tights = hull_incidence(pts, n)

    # A point is a vertex exactly when the facets through it meet in it
    # alone: a larger face holds two vertices, and every vertex is a point.
    every = frozenset(range(len(pts)))
    vertex_idx = [
        i
        for i in range(len(pts))
        if every.intersection(*(t for t in tights if i in t)) == {i}
    ]
    renumber = {old: new for new, old in enumerate(vertex_idx)}
    return Polytope(
        h=HPolytope(dim=n, inequalities=tuple((a, Fraction(c, den)) for a, c in facets)),
        v=VPolytope(vertices=tuple(tuple(Fraction(x, den) for x in pts[i]) for i in vertex_idx)),
        incidence=tuple(frozenset(renumber[i] for i in t if i in renumber) for t in tights),
    )


def is_lattice_polytope(p):
    return all(x.denominator == 1 for v in p.vertices for x in v)


def contains(p, x, strict=False):
    if len(x) != p.dim:
        raise ValidationError("point has wrong dimension")
    xv = tuple(map(_exact, x))
    if strict:
        return all(dot(a, xv) < rhs for a, rhs in p.inequalities)
    return all(dot(a, xv) <= rhs for a, rhs in p.inequalities)


def dilate(p, k):
    """The dilation kP: vertices and right-hand sides scale by k."""
    if k <= 0:
        raise ValidationError("dilation factor must be a positive integer")
    return Polytope(
        h=HPolytope(
            dim=p.dim,
            inequalities=tuple((a, rhs * k) for a, rhs in p.inequalities),
        ),
        v=VPolytope(vertices=tuple(vec_scale(Fraction(k), v) for v in p.vertices)),
        incidence=p.incidence,
    )


@lru_cache(maxsize=256)
def volume_and_barycenter(p):
    """Exact Euclidean volume and barycenter of a full-dimensional polytope.

    Read off P's weighted Ehrhart polynomials (Brion-Vergne, "Lattice
    points in simple polytopes", 1997): for a lattice polytope the
    leading coefficient of E is vol(P), and that of the coordinate sum
    S_i, at k^(n+1), is the integral of x_i over P.  So vol = lead(E) and
    Bc_i = lead(S_i) / vol, from the closed form that
    `latticecount.barycenter_rational_function` interpolates once per
    plan.  A rational P is first dilated to the lattice polytope DP, with
    D the least common denominator of its vertices: vol(P) = vol(DP)/D^n
    and Bc(P) = Bc(DP)/D.
    """
    from .latticecount import barycenter_rational_function  # latticecount imports this module

    n = p.dim
    den = lcm(*{x.denominator for v in p.vertices for x in v})
    brf = barycenter_rational_function(p if den == 1 else dilate(p, den))
    vol = brf.ehrhart.coefficients[n]
    return vol / den**n, tuple(q[n] / (vol * den) for q in brf.numerators)
