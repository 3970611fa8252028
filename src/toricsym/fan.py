"""Fans of strongly convex rational cones and the fan/polytope bridges.

A fan is given by its primitive ray generators and maximal cones (sets of
ray indices).  When a variety is Fano its fan is the face fan of the
convex hull of the rays, so rays alone determine everything; `Fan.from_rays`
builds that face fan.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import UnboundedPolytopeError, ValidationError
from .linalg import det, dot, gcd_vector, kernel_basis, rank, vec_scale
from .polytope import (
    HPolytope,
    extreme_rays,
    is_lattice_polytope,
    polytope_from_vertices,
    vertices_from_inequalities,
)


@dataclass(frozen=True)
class Fan:
    dim: int
    rays: tuple  # of primitive integer tuples
    max_cones: tuple  # of tuples of ray indices, each sorted

    @staticmethod
    def make(dim, rays, max_cones):
        rays = tuple(tuple(int(x) for x in r) for r in rays)
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
    every supplied point to be a vertex of the hull.
    """
    pts = tuple(tuple(int(x) for x in p) for p in points)
    if not pts:
        raise ValidationError("no points given")
    n = len(pts[0])
    hull = polytope_from_vertices(pts)
    if len(hull.vertices) != len(pts):
        raise ValidationError("a supplied point is not a vertex of the hull")
    if not all(dot(a, (0,) * n) < rhs for a, rhs in hull.inequalities):
        raise ValidationError("0 is not interior to the hull of the points")
    index_of = {tuple(Fraction(x) for x in p): i for i, p in enumerate(pts)}
    cones = []
    for tight in hull.incidence:
        cone = tuple(sorted(index_of[hull.vertices[i]] for i in tight))
        cones.append(cone)
    return Fan(dim=n, rays=pts, max_cones=tuple(sorted(cones)))


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


def cone_contains(rays, n, x):
    eqs, ineqs = cone_facet_normals(rays, n)
    return all(dot(e, x) == 0 for e in eqs) and all(dot(u, x) >= 0 for u in ineqs)


def _is_strongly_convex(rays, n):
    """cone(rays) contains no line exactly when its dual cone is
    full-dimensional in the span, that is, when the span equations and the
    facet normals together have rank n.
    """
    if not rays:
        return True
    eqs, ineqs = cone_facet_normals(rays, n)
    return rank(eqs + ineqs) == n


@dataclass(frozen=True)
class FanValidationReport:
    ok: bool
    problems: tuple

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

    Failures are reported, not raised; `problems` lists human-readable
    reasons including the offending cone pairs.
    """
    problems = ray_problems(f)
    for ci, cone in enumerate(f.max_cones):
        gens = [f.rays[i] for i in cone]
        if not _is_strongly_convex(gens, f.dim):
            problems.append(f"cone {ci} is not strongly convex")
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
    """Each cone's generators extend to a lattice basis."""
    from .linalg import smith_normal_form

    for cone in f.max_cones:
        gens = [f.rays[i] for i in cone]
        if rank(gens) != len(gens):
            return False
        if len(gens) == f.dim:
            if det(tuple(gens)) not in (1, -1):
                return False
        else:
            diag = smith_normal_form(tuple(gens)).diagonal
            if any(x != 1 for x in diag):
                return False
    return True


@lru_cache(maxsize=256)
def polytope_from_fan(f):
    """The anticanonical polytope {y : <y, -v_i> <= 1 for all rays v_i}.

    Contains 0 strictly; an unbounded system signals a non-complete fan.
    """
    h = HPolytope.make(
        f.dim, [(vec_scale(-1, r), Fraction(1)) for r in f.rays]
    )
    try:
        return vertices_from_inequalities(h)
    except UnboundedPolytopeError as exc:
        raise UnboundedPolytopeError(
            "anticanonical system is unbounded; the fan is not complete"
        ) from exc


@lru_cache(maxsize=256)
def is_fano(f):
    """Reflexivity test: the operating notion of (Gorenstein) Fano.

    Requires: every ray is a vertex of conv(rays), the anticanonical
    polytope is a lattice polytope, and its facets biject with the rays
    (no inequality is redundant or duplicated).
    """
    if not is_complete(f):
        return False
    try:
        hull = polytope_from_vertices(f.rays)
    except ValidationError:
        return False
    if len(hull.vertices) != len(f.rays):
        return False
    p = polytope_from_fan(f)
    if p.dropped_inequalities:
        return False
    if len(p.inequalities) != len(f.rays):
        return False
    return is_lattice_polytope(p)

