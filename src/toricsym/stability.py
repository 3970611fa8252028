"""Stability thresholds and canonical-metric verdicts.

Everything here is a closed combinatorial formula: the alpha invariant is
a gauge maximum over the projections of the vertices onto the fixed
subspace, whose hull is the fixed-point slice of the polytope, and the
delta thresholds pair barycenters against the ray generators.  No analysis is performed;
existence verdicts are exactly the vanishing conditions they are
equivalent to.
"""

from fractions import Fraction

from .errors import InvariantViolation, NonFanoError, ValidationError
from .fan import is_fano, polytope_from_fan
from .latticecount import quantized_barycenter
from .linalg import dot, mat_vec, solve_rational, transpose
from .polytope import volume_and_barycenter
from .record import Record
from .symmetry import fixed_subspace, polytope_automorphisms, roots


def dual_norm(u, p):
    """Gauge of -u with respect to P: inf{lambda > 0 : -u/lambda in P}.

    For an anticanonical polytope {<y, -v_i> <= 1} this is
    max(0, max_i <u, v_i>); the v_i are recovered from the facet normals.
    """
    if len(u) != p.dim:
        raise ValidationError("vector has wrong dimension")
    best = Fraction(0)
    for a, rhs in p.inequalities:
        if rhs <= 0:
            raise ValidationError("dual norm needs 0 interior to the polytope")
        val = Fraction(-dot(a, u)) / rhs  # <u, v> with v = -a/rhs
        if val > best:
            best = val
    return best


def alpha_invariant(f, h=None):
    """Tian-type threshold for the group G generated by H and the real torus.

    alpha = 1/(1 + max over P^G of the gauge).  The group average maps P
    onto its fixed slice P^G = P cap V^G, projecting along W, the sum of
    the images of g - I, whose annihilator is the space fixed by the
    transposes.  With K a basis of V^G and L one of that space, the image
    of a vertex v is K.c where (L.K) c = L.v.  P^G is the hull of these
    images, and the convex gauge peaks at one of them.  Equals 1 exactly
    when P^G = {0}.  H (a group or matrices) is checked to lie in Aut P;
    by default G = Aut P.
    """
    if not is_fano(f):
        raise NonFanoError("alpha invariant requires a Fano fan")
    p = polytope_from_fan(f)
    n = p.dim
    if h is None:
        gens = polytope_automorphisms(p).generators
    else:
        gens = getattr(h, "generators", h)
        vertex_set = set(p.vertices)
        for g in gens:
            if len(g) != n or any(len(r) != n for r in g) or (
                {mat_vec(g, v) for v in vertex_set} != vertex_set
            ):
                raise ValidationError("an element does not lie in Aut P")
    fixed = fixed_subspace(gens, n)
    if not fixed:
        return Fraction(1)
    dual = fixed_subspace([transpose(g) for g in gens], n)
    pairing = [[dot(a, b) for b in fixed] for a in dual]
    best = Fraction(0)
    for v in p.vertices:
        c = solve_rational(pairing, [dot(a, v) for a in dual])
        if c is None:
            raise InvariantViolation("the fixed spaces of G and its transpose do not pair")
        image = tuple(sum(cj * b[i] for cj, b in zip(c, fixed)) for i in range(n))
        best = max(best, dual_norm(image, p))
    return Fraction(1) / (1 + best)


def _delta_from_barycenter(bc, rays):
    worst = max(Fraction(dot(bc, v)) for v in rays)
    return Fraction(1) / (1 + worst)


def delta_invariant(f):
    """delta(-K_X) = min_i 1/(1 + <Bc(P), v_i>); equals 1 iff Bc(P) = 0."""
    if not is_fano(f):
        raise NonFanoError("delta invariant requires a Fano fan")
    p = polytope_from_fan(f)
    _, bc = volume_and_barycenter(p)
    return _delta_from_barycenter(bc, f.rays)


def delta_k(f, k):
    """delta_k(-K_X) = min_i 1/(1 + <Bc_k(P), v_i>); equals 1 iff Bc_k = 0."""
    if not is_fano(f):
        raise NonFanoError("delta_k requires a Fano fan")
    p = polytope_from_fan(f)
    bc = quantized_barycenter(p, k)
    return _delta_from_barycenter(bc, f.rays)


class StabilityReport(Record):
    __slots__ = (
        "delta",
        "delta_k",  # of (k, Fraction)
        "alpha",  # of (subgroup label, Fraction)
        "ke_exists",
        "reductive",
        "balanced_k",  # of (k, bool)
    )


def metric_verdicts(f, k_budget=3):
    """Combinatorial existence verdicts for the canonical metrics.

    A Kaehler-Einstein metric exists iff Bc(P) = 0; a k-anticanonically
    balanced metric exists iff Bc_k(P) = 0; the identity component of the
    automorphism group is reductive iff R(P) = -R(P).
    """
    if not is_fano(f):
        raise NonFanoError("metric verdicts require a Fano fan")
    p = polytope_from_fan(f)
    _, bc = volume_and_barycenter(p)
    zero = (Fraction(0),) * f.dim
    deltas = tuple((k, delta_k(f, k)) for k in range(1, k_budget + 1))
    balanced = tuple((k, d == 1) for k, d in deltas)
    return StabilityReport(
        delta=_delta_from_barycenter(bc, f.rays),
        delta_k=deltas,
        alpha=(("full", alpha_invariant(f)),),
        ke_exists=bc == zero,
        reductive=roots(f).is_centrally_lattice_symmetric(),
        balanced_k=balanced,
    )
