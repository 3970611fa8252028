"""Subset-scan hull and cone routines, kept as a test oracle.

These are the exhaustive scans that `extreme_rays` replaced: every
n-subset of points, inequalities or generators is tested for a
one-dimensional kernel and a consistent sign.  They are exponential in the
dimension but independent of the double description method, so the tests
compare the two on every input where the scans still finish.

Beside them is the plan builder that Fourier-Motzkin elimination
replaced: one double description per projection of P's vertices.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from helpers_fraction import affine_rank
from toricsym.errors import UnboundedPolytopeError, ValidationError
from toricsym import fan
from toricsym.fan import cone_span_equations
from toricsym.latticecount import EnumerationPlan, PlanRow, coordinate_order
from toricsym.linalg import det, dot, kernel_basis, primitive_vector, rank, vec_scale
from toricsym.polytope import HPolytope, Polytope, VPolytope, _facets, _scaled


def solve_integer_cramer(a, b):
    """Cramer solve of a square integer system with rational rhs, or None."""
    n = len(a)
    d = det(a)
    if d == 0:
        return None
    den = 1
    for x in b:
        xb = Fraction(x).denominator
        den = den * xb // gcd(den, xb)
    bi = [int(Fraction(x) * den) for x in b]
    sol = []
    for j in range(n):
        mat = tuple(
            tuple(bi[i] if c == j else a[i][c] for c in range(n)) for i in range(n)
        )
        sol.append(Fraction(det(mat), d * den))
    return tuple(sol)


def recession_is_trivial(normals, n):
    """True iff {d : <d, normal> <= 0 for all normals} = {0}."""
    if rank(normals) < n:
        return False
    if n == 1:
        return any(a[0] > 0 for a in normals) and any(a[0] < 0 for a in normals)
    for subset in combinations(normals, n - 1):
        kb = kernel_basis(subset)
        if len(kb) != 1:
            continue
        d = kb[0]
        for cand in (d, vec_scale(-1, d)):
            if all(dot(a, cand) <= 0 for a in normals):
                return False
    return True


def vertices_from_inequalities(h):
    """Vertex enumeration by exhaustive n-subset facet intersection."""
    n = h.dim
    ineqs = h.inequalities
    normals = [a for a, _ in ineqs]
    if not recession_is_trivial(normals, n):
        raise UnboundedPolytopeError("inequality system is unbounded")

    verts = {}
    for subset in combinations(range(len(ineqs)), n):
        a = tuple(ineqs[i][0] for i in subset)
        b = tuple(ineqs[i][1] for i in subset)
        x = solve_integer_cramer(a, b)
        if x is None:
            continue
        if all(dot(normal, x) <= rhs for normal, rhs in ineqs):
            verts[x] = True
    vertices = sorted(verts)
    if not vertices:
        raise ValidationError("inequality system has empty interior")
    if affine_rank(vertices) < n:
        raise ValidationError("feasible set is not full-dimensional")

    kept = []
    dropped = []
    incidence = []
    seen = {}
    for normal, rhs in ineqs:
        tight = frozenset(
            i for i, vtx in enumerate(vertices) if dot(normal, vtx) == rhs
        )
        if len(tight) == 0 or affine_rank([vertices[i] for i in tight]) < n - 1:
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
        v=VPolytope(vertices=tuple(vertices)),
        incidence=tuple(incidence),
        dropped_inequalities=tuple(dropped),
    )


def polytope_from_vertices(points):
    """conv(points), with facets from supporting hyperplanes of n-subsets."""
    pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
    if not pts:
        raise ValidationError("empty point set")
    n = len(pts[0])
    if affine_rank(pts) < n:
        raise ValidationError("point set is not full-dimensional")

    facets = {}
    for subset in combinations(range(len(pts)), n):
        chosen = [pts[i] for i in subset]
        base = chosen[0]
        diffs = [tuple(c - d for c, d in zip(p, base)) for p in chosen[1:]]
        kb = kernel_basis(diffs) if diffs else kernel_basis([tuple([0] * n)])
        if len(kb) != 1:
            continue
        normal = kb[0]
        rhs = Fraction(dot(normal, base))
        side = [dot(normal, p) - rhs for p in pts]
        if any(s > 0 for s in side):
            normal = tuple(-x for x in normal)
            rhs = -rhs
            side = [-s for s in side]
        if any(s > 0 for s in side):
            continue  # points on both sides: not a supporting hyperplane
        if (normal, rhs) not in facets:
            facets[(normal, rhs)] = frozenset(
                i for i, s in enumerate(side) if s == 0
            )

    ineqs = sorted(facets)
    # A point is a vertex exactly when its tight facet normals span.
    vertex_idx = []
    for i in range(len(pts)):
        tight_normals = [a for (a, rhs) in ineqs if i in facets[(a, rhs)]]
        if len(tight_normals) >= n and rank(tight_normals) == n:
            vertex_idx.append(i)
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


def cone_facet_normals(rays, n):
    """(span equations, facet normals) of cone(rays), by (d-1)-subset scan."""
    eqs = cone_span_equations(rays)
    span_dim = n - len(eqs)
    if span_dim == 0:
        return eqs, ()
    ineqs = {}
    if span_dim == 1:
        ineqs[primitive_vector(rays[0])] = True
        return eqs, tuple(ineqs)
    for subset in combinations(rays, span_dim - 1):
        kb = kernel_basis(tuple(subset) + tuple(eqs))
        if len(kb) != 1:
            continue
        u = kb[0]
        vals = [dot(u, r) for r in rays]
        if all(v >= 0 for v in vals):
            ineqs[u] = True
        elif all(v <= 0 for v in vals):
            ineqs[vec_scale(-1, u)] = True
    return eqs, tuple(ineqs)


def cone_extreme_rays(eqs, ineqs, n):
    """Primitive extreme rays of the pointed cone {eq = 0, ineq >= 0}."""
    span_dim = n - rank(eqs) if eqs else n
    if span_dim == 0:
        return ()
    out = {}
    if span_dim == 1:
        kb = kernel_basis(eqs) if eqs else ((1,),) if n == 1 else kernel_basis(((0,) * n,))
        for d in kb:
            for cand in (d, vec_scale(-1, d)):
                if all(dot(u, cand) >= 0 for u in ineqs):
                    out[primitive_vector(cand)] = True
        return tuple(out)
    for subset in combinations(ineqs, span_dim - 1):
        kb = kernel_basis(tuple(subset) + tuple(eqs))
        if len(kb) != 1:
            continue
        d = kb[0]
        for cand in (d, vec_scale(-1, d)):
            if all(dot(u, cand) >= 0 for u in ineqs):
                out[primitive_vector(cand)] = True
    return tuple(out)


def is_strongly_convex(rays, n):
    """No nontrivial nonnegative combination of the generators vanishes,
    tested on every linear circuit of size <= n+1."""
    if not rays:
        return True
    for size in range(2, min(len(rays), n + 1) + 1):
        for subset in combinations(rays, size):
            kb = kernel_basis(tuple(zip(*subset)))
            if len(kb) != 1:
                continue
            v = kb[0]
            if all(a >= 0 for a in v) or all(a <= 0 for a in v):
                return False
    return True


def cone_contains(rays, n, x):
    """x lies in cone(rays), by the library's facet normals of the cone."""
    eqs, ineqs = fan.cone_facet_normals(rays, n)
    return all(dot(e, x) == 0 for e in eqs) and all(dot(u, x) >= 0 for u in ineqs)


def build_plan(p):
    """The plan of P with one integer hull per projection of its vertices.

    Level j < n-1 holds the facets a.y <= c of conv{(v_s[0], ..., v_s[j])}
    with a[j] != 0, for the vertices scaled to integer points D*v and
    s = `coordinate_order(p)`, hulled by `polytope._facets` in
    lexicographic order; the last level is P's own inequalities.
    """
    n = p.dim
    order = coordinate_order(p)
    den, verts = _scaled(p.vertices)
    verts = [tuple(v[i] for i in order) for v in verts]
    levels = []
    for j in range(n - 1):
        rows = []
        for a, c in sorted(_facets(sorted({v[: j + 1] for v in verts}), j + 1)):
            if a[j]:
                g = gcd(c, den)
                rows.append(PlanRow(coeffs=tuple(den // g * x for x in a), c0=0, ck=c // g))
        levels.append(tuple(rows))
    levels.append(tuple(
        PlanRow(coeffs=tuple(b.denominator * a[i] for i in order), c0=0, ck=b.numerator)
        for a, b in p.inequalities
        if a[order[n - 1]]
    ))
    return EnumerationPlan(dim=n, levels=tuple(levels), order=order)
