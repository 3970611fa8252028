"""Exact rational polytopes: dual description, faces, volume, barycenter.

Both descriptions are always carried together: facet inequalities
(integer normals, rational right-hand sides, meaning <y, normal> <= rhs)
and the irredundant vertex list, linked by a facet x vertex incidence
table.  All coordinates are Fractions; every computation is exact.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import UnboundedPolytopeError, ValidationError
from .linalg import (
    det,
    dot,
    gcd_vector,
    identity,
    integer_row,
    invert_rational,
    kernel_basis,
    primitive_vector,
    rank,
    transpose,
    vec_scale,
    vec_sub,
)


def _frac_vec(v):
    return tuple(Fraction(x) for x in v)


@dataclass(frozen=True)
class HPolytope:
    """Inequality description: <y, normal> <= rhs for each (normal, rhs)."""

    dim: int
    inequalities: tuple  # of (normal: tuple[int], rhs: Fraction)

    @staticmethod
    def make(dim, inequalities):
        ineqs = []
        for normal, rhs in inequalities:
            if len(normal) != dim:
                raise ValidationError("inequality normal has wrong dimension")
            ineqs.append((tuple(int(x) for x in normal), Fraction(rhs)))
        return HPolytope(dim=dim, inequalities=tuple(ineqs))


@dataclass(frozen=True)
class VPolytope:
    """Irredundant vertex list."""

    vertices: tuple  # of tuple[Fraction]


@dataclass(frozen=True)
class Polytope:
    """Paired H- and V-description with facet x vertex incidence.

    `incidence[i]` is the frozenset of vertex indices lying on facet i.
    `dropped_inequalities` records redundant input rows removed during
    vertex enumeration.
    """

    h: HPolytope
    v: VPolytope
    incidence: tuple  # of frozenset[int]
    dropped_inequalities: tuple = field(default=(), compare=False)

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
    solutions of `eqs` it starts from the simplicial cone on d independent
    rows, then adds the other rows one at a time.  A ray on the positive
    side of the new row and one on its negative side are combined only
    when they are adjacent: their common zero set has at least d-2 rows
    and no third ray vanishes on all of it.  Every new ray is made
    primitive.  The rays come back sorted; ValueError means the cone is
    not pointed.
    """
    basis = kernel_basis(eqs) if eqs else identity(n)
    d = len(basis)
    if d == 0:
        return ()
    rows = [tuple(dot(u, b) for b in basis) for u in ineqs]
    rows = [r for r in rows if any(r)]
    start, echelon = [], []
    for i, row in enumerate(rows):
        for c, e in echelon:
            if row[c]:
                row = tuple(e[c] * x - row[c] * y for x, y in zip(row, e))
        if any(row):
            row = primitive_vector(row)
            echelon.append((next(c for c, x in enumerate(row) if x), row))
            start.append(i)
            if len(start) == d:
                break
    if len(start) < d:
        raise ValueError("cone is not pointed")

    # Column i of the inverse of the start rows is 1 on start row i and 0 on
    # the others.  A ray is (y, bitmask of the added rows that vanish on y).
    inverse = transpose(invert_rational([rows[i] for i in start]))
    rays = [
        (primitive_vector(y), sum(1 << j for j in start if j != i))
        for i, y in zip(start, inverse)
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
                y = vec_sub(vec_scale(sp, q), vec_scale(sq, p))  # dot(row, y) = 0
                kept.append((primitive_vector(y), z | bit))
        rays = kept
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
        rhs = Fraction(rhs)
        rows.append(tuple(-a * rhs.denominator for a in normal) + (rhs.numerator,))
    rays = extreme_rays((), rows, n + 1)
    if any(ray[n] == 0 for ray in rays):
        raise UnboundedPolytopeError("inequality system is unbounded")
    if not rays:
        raise ValidationError("inequality system has empty interior")
    vertices, rays = zip(
        *sorted((tuple(Fraction(x, ray[n]) for x in ray[:n]), ray) for ray in rays)
    )
    if affine_rank(vertices) < n:
        raise ValidationError("feasible set is not full-dimensional")

    kept = []
    dropped = []
    incidence = []
    seen = {}
    tights = [
        frozenset(i for i, ray in enumerate(rays) if dot(row, ray) == 0)
        for row in rows[1:]
    ]
    every = frozenset(range(len(vertices)))
    for (normal, rhs), tight in zip(ineqs, tights):
        # Every facet is cut out by some row, so a row cuts out a smaller
        # face exactly when another row's proper face contains it.
        if not tight or any(tight < other < every for other in tights):
            dropped.append((normal, rhs))
            continue
        key = primitive_vector(normal)
        scale = next(Fraction(a, b) for a, b in zip(normal, key) if b)
        canon = (key, Fraction(rhs) / scale)
        if canon in seen:
            dropped.append((normal, rhs))
            continue
        seen[canon] = True
        kept.append((normal, Fraction(rhs)))
        incidence.append(tight)

    return Polytope(
        h=HPolytope(dim=n, inequalities=tuple(kept)),
        v=VPolytope(vertices=vertices),
        incidence=tuple(incidence),
        dropped_inequalities=tuple(dropped),
    )


def affine_rank(points):
    """Dimension of the affine hull of the given points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    diffs = [tuple(Fraction(c) - Fraction(d) for c, d in zip(p, base)) for p in points[1:]]
    return rank(diffs)


def polytope_from_vertices(points):
    """Build the paired description of conv(points).

    With the points over a common denominator D, the facets a.y <= b are
    the extreme rays (a, D*b) of the cone {(a, c) : c - a.(D*p) >= 0 for
    every point p} (`extreme_rays`); each is divided by gcd(a), so the
    normal is primitive and b a Fraction.  Input points interior to the
    hull (or to a face) are discarded.
    """
    pts = sorted(set(_frac_vec(p) for p in points))
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
    # A point is a vertex exactly when the facets through it meet in it
    # alone: a larger face holds two vertices, and every vertex is a point.
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


def is_lattice_polytope(p):
    return all(x.denominator == 1 for v in p.vertices for x in v)


def contains(p, x, strict=False):
    if len(x) != p.dim:
        raise ValidationError("point has wrong dimension")
    xv = _frac_vec(x)
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


def _face_children(face, incidence):
    """Facets of a face, as maximal proper intersections with polytope facets."""
    children = []
    for tight in incidence:
        c = face & tight
        if c and c != face:
            children.append(c)
    maximal = []
    for c in children:
        if any(c < other for other in children):
            continue
        if c not in maximal:
            maximal.append(c)
    return maximal


def _boundary_simplices(p):
    """Triangulate the polytope into simplices (as vertex index tuples).

    Cones each recursively triangulated facet to the lexicographically
    smallest vertex; vertices are already sorted, so index 0 is the base.
    """
    n = p.dim
    nverts = len(p.vertices)
    memo = {}

    def tri(face, d):
        key = face
        if key in memo:
            return memo[key]
        idx = sorted(face)
        if len(idx) == d + 1:
            memo[key] = [tuple(idx)]
            return memo[key]
        base = idx[0]
        out = []
        for child in _face_children(face, p.incidence):
            if base in child:
                continue
            for s in tri(child, d - 1):
                out.append((base,) + s)
        memo[key] = out
        return out

    if nverts == n + 1:
        return [tuple(range(nverts))]
    base = 0
    simplices = []
    for tight in p.incidence:
        if base in tight:
            continue
        for s in tri(tight, n - 1):
            simplices.append((base,) + s)
    return simplices


@lru_cache(maxsize=256)
def volume_and_barycenter(p):
    """Exact Euclidean volume and barycenter of a full-dimensional polytope.

    Triangulates from the lex-smallest vertex; each simplex contributes
    |det|/n! to the volume and its vertex average, volume-weighted, to the
    barycenter.
    """
    n = p.dim
    verts = p.vertices
    if affine_rank(verts) < n:
        raise ValidationError("polytope is lower-dimensional")
    fact = factorial(n)
    total = Fraction(0)
    moment = [Fraction(0)] * n

    for s in _boundary_simplices(p):
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
