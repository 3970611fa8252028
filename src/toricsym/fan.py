"""Fans of strongly convex rational cones and the fan/polytope bridges.

A fan is given by its primitive ray generators and maximal cones (sets of
ray indices).  When a variety is Fano its fan is the face fan of the
convex hull Q = conv(rays), so rays alone determine everything;
`Fan.from_rays` builds that face fan and keeps Q on the fan.  The
anticanonical polytope P = {y : <y, v_i> >= -1} is the polar of -Q, so
`polytope_from_fan` reads P off Q's facets: a fan given by its rays costs
one double description, the one for Q.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .errors import UnboundedPolytopeError, ValidationError
from .linalg import det, dot, gcd_vector, kernel_basis, rank, smith_normal_form
from .polytope import (
    HPolytope,
    Polytope,
    VPolytope,
    _exact,
    extreme_rays,
    hull_incidence,
    is_lattice_polytope,
    polytope_from_vertices,
)
from .record import Record


def _lattice_point(v):
    """v as a tuple of ints; a float or a non-integral coordinate is refused."""
    out = []
    for x in map(_exact, v):
        if x.denominator != 1:
            raise ValidationError(f"ray coordinate {x} is not an integer")
        out.append(int(x))
    return tuple(out)


class Fan(Record):
    """`hull` is the `Polytope` conv(rays) of a face fan, every ray one of
    its vertices, or None; equality, the hash and the repr ignore it.
    """

    __slots__ = (
        "dim",
        "rays",  # of primitive integer tuples
        "max_cones",  # of tuples of ray indices, each sorted
        "hull",
    )
    _compare = ("dim", "rays", "max_cones")

    def __init__(self, dim, rays, max_cones, hull=None):
        Record.__init__(self, dim, rays, max_cones, hull)

    @staticmethod
    def make(dim, rays, max_cones):
        rays = tuple(map(_lattice_point, rays))
        cones = tuple(tuple(sorted(set(int(i) for i in c))) for c in max_cones)
        for r in rays:
            if len(r) != dim:
                raise ValidationError("ray has wrong dimension")
        for c in cones:
            if any(i < 0 or i >= len(rays) for i in c):
                raise ValidationError("cone refers to a missing ray")
        return Fan(dim=dim, rays=rays, max_cones=cones)

    @staticmethod
    def from_rays(rays):
        """Face-fan construction: maximal cones over the hull facets of the rays."""
        return face_fan_from_polytope(rays)


def face_fan_from_polytope(points):
    """The face fan of conv(points): one maximal cone per hull facet.

    Requires the hull to be full-dimensional with 0 in its interior and
    every supplied point to be a vertex of the hull.  The hull is kept on
    the fan for `polytope_from_fan`.
    """
    pts = tuple(map(_lattice_point, points))
    if not pts:
        raise ValidationError("no points given")
    n = len(pts[0])
    hull = polytope_from_vertices(pts)
    if len(hull.vertices) != len(pts):
        raise ValidationError("a supplied point is not a vertex of the hull")
    if not all(rhs > 0 for _, rhs in hull.inequalities):
        raise ValidationError("0 is not interior to the hull of the points")
    # Every point is a vertex and the hull lists its vertices sorted, so
    # hull vertex j is the j-th point in sorted order.
    point_of = sorted(range(len(pts)), key=pts.__getitem__)
    cones = sorted(tuple(sorted(point_of[j] for j in tight)) for tight in hull.incidence)
    return Fan(dim=n, rays=pts, max_cones=tuple(cones), hull=hull)


# ---------------------------------------------------------------------------
# cone geometry helpers


def cone_span_equations(rays):
    """Primitive normals u with <u, r> = 0 for every generator (span cutout)."""
    if not rays:
        return ()
    return kernel_basis(rays)


def cone_facet_normals(rays, n):
    """H-description of cone(rays) inside its linear span.

    Returns (equations, inequalities): the cone is {x : eq(x) = 0, ineq(x) >= 0}.
    The inequalities are the extreme rays of the dual cone within the span,
    {u : eq(u) = 0, <u, r> >= 0 for every generator r}.
    """
    eqs = cone_span_equations(rays)
    return eqs, extreme_rays(eqs, rays, n)


def _is_strongly_convex(rays, n):
    """cone(rays) contains no line exactly when its dual cone is
    full-dimensional in the span, that is, when the span equations and the
    facet normals together have rank n.
    """
    if not rays:
        return True
    eqs, ineqs = cone_facet_normals(rays, n)
    return rank(eqs + ineqs) == n


class FanValidationReport(Record):
    __slots__ = ("ok", "problems")

    def __bool__(self):
        return self.ok


def ray_problems(f):
    """Reasons why some ray of `f` is not primitive or is a duplicate."""
    problems = []
    seen = set()
    for i, r in enumerate(f.rays):
        if gcd_vector(r) != 1:
            problems.append(f"ray {i} {r} is not primitive")
        if r in seen:
            problems.append(f"ray {i} {r} is a duplicate")
        seen.add(r)
    return problems


def validate_fan(f):
    """Check ray primitivity, strong convexity, and the two fan axioms.

    Maximal cones must not repeat or lie inside one another by ray set.
    Failures are reported, not raised; `problems` lists human-readable
    reasons including the offending cone pairs.
    """
    problems = ray_problems(f)
    for ci, cone in enumerate(f.max_cones):
        gens = [f.rays[i] for i in cone]
        if not _is_strongly_convex(gens, f.dim):
            problems.append(f"cone {ci} is not strongly convex")
    ray_sets = [set(cone) for cone in f.max_cones]
    for ci, cj in combinations(range(len(ray_sets)), 2):
        if ray_sets[ci] <= ray_sets[cj] or ray_sets[cj] <= ray_sets[ci]:
            problems.append(f"cones {ci} and {cj} repeat or contain one another")
    if not problems:
        hreps = [
            cone_facet_normals([f.rays[i] for i in cone], f.dim)
            for cone in f.max_cones
        ]
        for ci, cj in combinations(range(len(f.max_cones)), 2):
            if not _intersection_is_common_face(f, hreps, ci, cj):
                problems.append(
                    f"cones {ci} and {cj} do not intersect in a common face"
                )
    return FanValidationReport(ok=not problems, problems=tuple(problems))


def _intersection_is_common_face(f, hreps, ci, cj):
    n = f.dim
    eqs_i, ineqs_i = hreps[ci]
    eqs_j, ineqs_j = hreps[cj]
    inter_eqs = tuple(eqs_i) + tuple(eqs_j)
    inter_ineqs = tuple(ineqs_i) + tuple(ineqs_j)
    rays_f = extreme_rays(inter_eqs, inter_ineqs, n)
    for eqs, ineqs, cone in (
        (eqs_i, ineqs_i, ci),
        (eqs_j, ineqs_j, cj),
    ):
        # Minimal face of the cone containing rays_f: tighten every facet
        # normal that vanishes on all of them.
        zero = [u for u in ineqs if all(dot(u, r) == 0 for r in rays_f)]
        face_rays = extreme_rays(
            tuple(eqs) + tuple(zero),
            tuple(u for u in ineqs if u not in zero),
            n,
        )
        for r in face_rays:
            if not all(dot(u, r) == 0 for u in inter_eqs) or not all(
                dot(u, r) >= 0 for u in inter_ineqs
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# predicates


def _full_dim_cone_facets(f):
    """Per maximal cone: the ray-index sets of its facets. Requires full-dim cones."""
    out = []
    for cone in f.max_cones:
        gens = [f.rays[i] for i in cone]
        eqs, ineqs = cone_facet_normals(gens, f.dim)
        if eqs:
            return None  # a maximal cone is lower-dimensional
        facets = []
        for u in ineqs:
            on = frozenset(i for i in cone if dot(u, f.rays[i]) == 0)
            facets.append(on)
        out.append(facets)
    return out


@lru_cache(maxsize=256)
def is_complete(f):
    """True iff the maximal cones tile N_R.

    Criterion: every facet of every maximal cone is shared by exactly two
    maximal cones (and the fan is nonempty with full-dimensional cones).
    """
    if not f.max_cones:
        return False
    facets = _full_dim_cone_facets(f)
    if facets is None:
        return False
    counts = {}
    for ci, cone_facets in enumerate(facets):
        for key in cone_facets:
            counts[key] = counts.get(key, 0) + 1
    return all(c == 2 for c in counts.values())


def is_simplicial(f):
    return all(
        rank([f.rays[i] for i in cone]) == len(cone) for cone in f.max_cones
    )


def is_smooth(f):
    """Each cone's generators extend to a lattice basis; that implies full
    rank, so a cone with more rays than the dimension is not smooth."""
    for cone in f.max_cones:
        gens = tuple(f.rays[i] for i in cone)
        if len(gens) > f.dim:
            return False
        if len(gens) == f.dim:
            if det(gens) not in (1, -1):
                return False
        elif any(x != 1 for x in smith_normal_form(gens).diagonal):
            return False
    return True


@lru_cache(maxsize=256)
def polytope_from_fan(f):
    """The anticanonical polytope {y : <y, -v_i> <= 1 for all rays v_i}.

    P is the polar of -Q, Q = conv(rays), read off Q's facets: a facet
    a.x <= c of Q gives the vertex -a/c of P, and ray v_i is tight exactly
    at the vertices of the facets of Q that hold v_i.  Q is the hull kept
    on a face fan (`Fan.hull`) or, for a fan with explicit cones, built
    here as integer facets and point sets only.  The vertices are sorted
    by the integer keys -a*(L/c), L the lcm of the c.

    The result equals `vertices_from_inequalities` on the anticanonical
    system, with the same dropped rows: a ray whose face of P is not a
    facet, or that repeats a kept ray, is dropped.  P contains 0 strictly.
    Rays that do not span, or a facet of Q with c <= 0 (0 not interior to
    Q), leave P unbounded: the fan is not complete.
    """
    if f.hull is not None:
        pts = sorted(f.rays)
        facets = [(a, c.numerator) for a, c in f.hull.inequalities]
        tights = f.hull.incidence
    else:
        pts = sorted(set(f.rays))
        try:
            facets, tights = hull_incidence(pts, f.dim)
        except ValidationError:  # no rays, or rays that do not span
            facets = ()
    if not facets or any(c <= 0 for _, c in facets):
        raise UnboundedPolytopeError("anticanonical system is unbounded; the fan is not complete")

    scale = lcm(*(c for _, c in facets))
    keys = [tuple(-x * (scale // c) for x in a) for a, c in facets]
    order = sorted(range(len(facets)), key=keys.__getitem__)
    vertices = tuple(
        tuple(Fraction(-x, facets[j][1]) for x in facets[j][0]) for j in order
    )
    holding = [[] for _ in pts]
    for vertex, j in enumerate(order):
        for i in tights[j]:
            holding[i].append(vertex)
    on_point = {p: frozenset(h) for p, h in zip(pts, holding)}
    on_ray = [on_point[r] for r in f.rays]

    kept = []
    dropped = []
    incidence = []
    seen = set()
    every = frozenset(range(len(vertices)))
    for r, tight in zip(f.rays, on_ray):
        # Every facet is cut out by some ray, so a ray cuts out a smaller
        # face exactly when another ray's proper face contains it.
        row = (tuple(-x for x in r), Fraction(1))
        if not tight or r in seen or any(tight < other < every for other in on_ray):
            dropped.append(row)
            continue
        seen.add(r)
        kept.append(row)
        incidence.append(tight)
    return Polytope(
        h=HPolytope(dim=f.dim, inequalities=tuple(kept)),
        v=VPolytope(vertices=vertices),
        incidence=tuple(incidence),
        dropped_inequalities=tuple(dropped),
    )


@lru_cache(maxsize=256)
def is_fano(f):
    """Reflexivity test: the operating notion of (Gorenstein) Fano.

    Requires: the anticanonical polytope is a lattice polytope and its
    facets biject with the rays (no inequality is redundant or duplicated).
    By polar duality a ray is then a vertex of conv(rays).
    """
    if not is_complete(f):
        return False
    p = polytope_from_fan(f)
    if p.dropped_inequalities:
        return False
    if len(p.inequalities) != len(f.rays):
        return False
    return is_lattice_polytope(p)

