"""Stability thresholds and canonical-metric verdicts.

Everything here is a closed combinatorial formula: the alpha invariant is
a gauge maximum over the fixed-point slice of the polytope, and the delta
thresholds pair barycenters against the ray generators.  No analysis is
performed; existence verdicts are exactly the vanishing conditions they
are equivalent to.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonFanoError, ValidationError
from .fan import is_fano, polytope_from_fan
from .latticecount import quantized_barycenter
from .linalg import dot
from .polytope import intersect_with_subspace, volume_and_barycenter
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
    """Tian-type threshold for the group generated by H and the real torus.

    alpha = 1/(1 + max over P^H of the gauge); the maximum of a convex
    function over a polytope is attained at a vertex, so only the
    (finitely many) vertices of the fixed slice are scanned.  Equals 1
    exactly when the fixed slice is {0}.
    """
    if not is_fano(f):
        raise NonFanoError("alpha invariant requires a Fano fan")
    p = polytope_from_fan(f)
    if h is None:
        elements = polytope_automorphisms(p).elements
    elif hasattr(h, "elements"):
        elements = h.elements  # a subgroup of Aut P, acting on M
    else:
        elements = tuple(h)
    basis = fixed_subspace(elements)
    if not basis:
        return Fraction(1)
    sl = intersect_with_subspace(p, basis)
    if sl.polytope is None:
        return Fraction(1)
    best = Fraction(0)
    for v in sl.ambient_vertices():
        val = dual_norm(v, p)
        if val > best:
            best = val
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


@dataclass(frozen=True)
class StabilityReport:
    delta: Fraction
    delta_k: tuple  # of (k, Fraction)
    alpha: tuple  # of (subgroup label, Fraction)
    ke_exists: bool
    reductive: bool
    balanced_k: tuple  # of (k, bool)


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
