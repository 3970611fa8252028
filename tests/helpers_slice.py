"""The fixed-slice route to alpha, kept as an oracle for the projection.

The library projects each vertex onto V^G, the common kernel of g - I
over the generators, and P^G is the hull of the projections.  The route
it replaced cuts P by the kernel of the stacked matrix (g - I) over every
element g (`fixed_subspace`), changes coordinates into that kernel and
runs a second H-to-V conversion there.
"""

from dataclasses import dataclass
from fractions import Fraction

from toricsym.errors import ValidationError
from toricsym.linalg import dot, integer_row, rank
from toricsym.polytope import HPolytope, Polytope, VPolytope, contains, vertices_from_inequalities
from toricsym.stability import dual_norm
from toricsym.symmetry import fixed_subspace


def _frac_vec(v):
    return tuple(Fraction(x) for x in v)


@dataclass(frozen=True)
class SubspaceSlice:
    """A slice P intersect span(basis), in basis coordinates.

    `polytope` is None exactly when the slice degenerated to the single
    point 0 (`is_point` True) or to nothing (`is_point` False).
    `ambient_vertices` maps the slice vertices back into ambient space.
    """

    ambient_dim: int
    basis: tuple
    polytope: object
    is_point: bool

    @property
    def is_empty(self):
        return self.polytope is None and not self.is_point

    def ambient_vertices(self):
        if self.polytope is None:
            if self.is_point:
                return ((Fraction(0),) * self.ambient_dim,)
            return ()
        out = []
        for t in self.polytope.vertices:
            amb = [Fraction(0)] * self.ambient_dim
            for coeff, bvec in zip(t, self.basis):
                for j, b in enumerate(bvec):
                    amb[j] += coeff * Fraction(b)
            out.append(tuple(amb))
        return tuple(out)


def intersect_with_subspace(p, basis):
    """Slice P by the span of the given linearly independent vectors."""
    n = p.dim
    basis = tuple(_frac_vec(b) for b in basis)
    zero_inside = contains(p, (0,) * n)
    if not basis:
        return SubspaceSlice(ambient_dim=n, basis=(), polytope=None, is_point=zero_inside)
    if rank(basis) != len(basis):
        raise ValidationError("basis vectors are linearly dependent")
    s = len(basis)
    rows = []
    for a, rhs in p.inequalities:
        coeffs = tuple(dot(_frac_vec(a), b) for b in basis)
        if all(c == 0 for c in coeffs):
            if rhs < 0:
                return SubspaceSlice(ambient_dim=n, basis=basis, polytope=None, is_point=False)
            continue
        coeffs, den = integer_row(coeffs)
        rows.append((coeffs, Fraction(rhs) * den))
    try:
        sliced = vertices_from_inequalities(HPolytope(dim=s, inequalities=tuple(rows)))
    except ValidationError:
        return SubspaceSlice(ambient_dim=n, basis=basis, polytope=None, is_point=zero_inside)
    return SubspaceSlice(ambient_dim=n, basis=basis, polytope=sliced, is_point=False)


def slice_alpha(p, elements):
    """(alpha, dim V^G) for the elements of a group G <= Aut P, by the slice."""
    basis = fixed_subspace(elements, p.dim)
    if not basis:
        return Fraction(1), 0
    sl = intersect_with_subspace(p, basis)
    if sl.polytope is None:
        return Fraction(1), len(basis)
    best = max(dual_norm(v, p) for v in sl.ambient_vertices())
    return Fraction(1) / (1 + best), len(basis)


def translate(p, t):
    """P + t, with the same incidences."""
    tv = _frac_vec(t)
    return Polytope(
        h=HPolytope(
            dim=p.dim,
            inequalities=tuple((a, rhs + dot(a, tv)) for a, rhs in p.inequalities),
        ),
        v=VPolytope(vertices=tuple(tuple(x + y for x, y in zip(v, tv)) for v in p.vertices)),
        incidence=p.incidence,
    )
