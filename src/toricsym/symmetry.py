"""Finite lattice symmetry groups, roots, and the symmetry classifications.

Aut P is the subgroup of GL(n, Z) preserving the polytope; Aut Delta the
subgroup preserving the fan.  For a Fano fan the two are exchanged by
transposition, so Fano paths search Aut P only; `fan_automorphisms` serves
non-Fano fans and is the oracle for the transpose.  Fixed points come from
the group sum S: dim V^G = tr(S)/|G|.  Roots are the lattice points in
relative interiors of facets, split into semisimple and unipotent.  Aut_0 P
is the Weyl group W (Demazure's structure theorem), generated inside Aut P
by one reflection per semisimple root; no element of Aut P is tested.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InvariantViolation,
    NonFanoError,
    NonLatticePolytopeError,
    ValidationError,
)
from .fan import Fan, is_complete, is_fano, polytope_from_fan
from .latticecount import enumerate_lattice_points
from .linalg import (
    dot,
    integer_row,
    invert_rational,
    kernel_basis,
    mat_vec,
    rank,
    transpose,
    vec_scale,
    vec_sub,
)
from .polytope import is_lattice_polytope


@dataclass(frozen=True)
class LatticeAutGroup:
    """A finite group of unimodular matrices with its vertex permutations.

    `vertex_permutations[g][i]` is the index of element g applied to
    vertex i.  For fan-side groups the same slot holds ray permutations.
    """

    elements: tuple  # of integer matrix tuples
    vertex_permutations: tuple

    @property
    def order(self):
        return len(self.elements)

    def check_group_axioms(self):
        """Closure from greedy generators S, in about |G| * |S| products.

        An element is fixed by its permutation of a spanning set, so the
        permutations must be distinct and hold the identity, and their
        closure under S must never leave the set.  It ends as <S>: a group.
        """
        perms = self.vertex_permutations
        elems = set(perms)
        ident = tuple(range(len(perms[0])))
        if len(elems) != self.order or ident not in elems:
            raise InvariantViolation("automorphism permutations repeat or lack the identity")
        _closure(perms, ident, elems)
        return True

    def generated_by(self, elements):
        """The subgroup generated by `elements`, each of which must lie here.

        Its closure is grown on the permutations, as in `check_group_axioms`.
        """
        perms = self.vertex_permutations
        perm_of = dict(zip(self.elements, perms))
        try:
            gens = [perm_of[tuple(map(tuple, g))] for g in elements]
        except KeyError:
            raise ValidationError("an element does not lie in the group") from None
        closure = _closure(gens, tuple(range(len(perms[0]))), set(perms))
        keep = [i for i, q in enumerate(perms) if q in closure]
        return LatticeAutGroup(
            elements=tuple(self.elements[i] for i in keep),
            vertex_permutations=tuple(perms[i] for i in keep),
        )


def _closure(perms, ident, inside):
    """<S> for generators S picked greedily from `perms`.

    The closure grows by right multiplication by S, level by level, and
    raises at the first product outside `inside`.
    """
    gens, closure = [], {ident}
    for g in perms:
        if g not in closure:
            gens.append(g)
            # closed under the old generators: times g, then new times all
            frontier, step = closure, (g,)
            while frontier:
                fresh = {tuple(a[i] for i in s) for a in frontier for s in step}
                fresh -= closure
                if not fresh <= inside:
                    raise InvariantViolation("automorphism set not closed under product")
                closure, frontier, step = closure | fresh, fresh, gens
    return closure


def _search_lattice_maps(points, pair_profiles, fingerprints, n):
    """All unimodular matrices permuting `points`, by frame search.

    A frame of n linearly independent points is fixed; candidate images
    are pruned by per-point fingerprints and pairwise profiles before the
    matrix is solved and checked exactly.  An integral matrix permuting a
    spanning set has finite order, so its determinant is +-1.
    """
    m = len(points)
    frame = []
    for i in range(m):
        if rank([points[j] for j in frame + [i]]) == len(frame) + 1:
            frame.append(i)
        if len(frame) == n:
            break
    if len(frame) < n:
        raise ValidationError("points do not span the space")

    index_of = {p: i for i, p in enumerate(points)}
    results = {}
    # sigma maps frame point r to image r, so sigma = B^T (F^T)^-1 for the
    # frame rows F and the image rows B: entry (i, j) is column i of B
    # dotted with row j of F^-1, held as an integer row w over den.
    inverse = [integer_row(r) for r in invert_rational([points[f] for f in frame])]

    def extend(pos, images):
        if pos == n:
            sigma = []
            for col in zip(*(points[i] for i in images)):
                entries = [divmod(dot(col, w), den) for w, den in inverse]
                if any(r for _, r in entries):
                    return
                sigma.append(tuple(q for q, _ in entries))
            sigma = tuple(sigma)
            perm = []
            for p in points:
                i = index_of.get(mat_vec(sigma, p))
                if i is None:
                    return
                perm.append(i)
            if len(set(perm)) == m:
                results[sigma] = tuple(perm)
            return
        f = frame[pos]
        for cand in range(m):
            if fingerprints[cand] != fingerprints[f]:
                continue
            ok = True
            for prev_pos in range(pos):
                if (
                    pair_profiles[frame[prev_pos]][f]
                    != pair_profiles[images[prev_pos]][cand]
                ):
                    ok = False
                    break
            if ok:
                images.append(cand)
                extend(pos + 1, images)
                images.pop()

    extend(0, [])
    return results


@lru_cache(maxsize=256)
def polytope_automorphisms(p):
    """Aut P for a full-dimensional lattice polytope.

    Frame search seeded by vertex fingerprints (pairings against every
    facet), verified by exact vertex-set preservation, with a final group
    check on generators.  On a Fano fan Aut Delta is its transpose.
    """
    if not is_lattice_polytope(p):
        raise NonLatticePolytopeError(
            "lattice automorphisms are defined for lattice polytopes"
        )
    n = p.dim
    verts = tuple(tuple(int(x) for x in v) for v in p.vertices)
    # integral normals and vertices: the right-hand sides are integers
    facets = [(a, int(rhs)) for a, rhs in p.inequalities]
    fingerprints = [
        tuple(sorted((dot(a, v), rhs) for a, rhs in facets)) for v in verts
    ]
    pair_profiles = [
        [
            tuple(sorted((dot(a, v), dot(a, w), rhs) for a, rhs in facets))
            for w in verts
        ]
        for v in verts
    ]
    found = _search_lattice_maps(verts, pair_profiles, fingerprints, n)

    elements = tuple(sorted(found))
    group = LatticeAutGroup(
        elements=elements, vertex_permutations=tuple(found[g] for g in elements)
    )
    group.check_group_axioms()
    return group


@lru_cache(maxsize=256)
def fan_automorphisms(f):
    """Aut Delta: unimodular maps permuting the rays and the cones.

    The route for non-Fano fans; on a Fano fan, an oracle checked to be the
    transpose of Aut P.
    """
    if not is_complete(f):
        raise ValidationError("fan automorphisms computed for complete fans only")
    n = f.dim
    rays = f.rays
    cone_sets = set(f.max_cones)
    ray_cone_count = [sum(1 for c in f.max_cones if i in c) for i in range(len(rays))]
    fingerprints = [
        (ray_cone_count[i], tuple(sorted(len(c) for c in f.max_cones if i in c)))
        for i in range(len(rays))
    ]
    shared = [
        [
            tuple(
                sorted(
                    (len(c),)
                    for c in f.max_cones
                    if i in c and j in c
                )
            )
            for j in range(len(rays))
        ]
        for i in range(len(rays))
    ]
    found = _search_lattice_maps(rays, shared, fingerprints, n)

    kept = [
        (g, perm)
        for g, perm in sorted(found.items())
        if {tuple(sorted(perm[i] for i in cone)) for cone in f.max_cones} == cone_sets
    ]
    group = LatticeAutGroup(
        elements=tuple(g for g, _ in kept),
        vertex_permutations=tuple(perm for _, perm in kept),
    )
    group.check_group_axioms()
    if is_fano(f):
        p = polytope_from_fan(f)
        dual = polytope_automorphisms(p)
        transposed = set(transpose(g) for g in group.elements)
        if transposed != set(dual.elements):
            raise InvariantViolation("Aut Delta is not the transpose of Aut P")
    return group


def fixed_subspace(group_or_elements):
    """Primitive integer basis of the subspace fixed by every element."""
    if isinstance(group_or_elements, LatticeAutGroup):
        elements = group_or_elements.elements
    else:
        elements = tuple(group_or_elements)
    if not elements:
        raise ValidationError("empty element list")
    n = len(elements[0])
    rows = []
    for g in elements:
        for i in range(n):
            rows.append(tuple(g[i][j] - (1 if i == j else 0) for j in range(n)))
    if all(all(x == 0 for x in r) for r in rows):
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return kernel_basis(rows)


def group_sum(group):
    """S, the sum of the elements of a finite group G.

    S/|G| is a projection onto the fixed subspace V^G; it maps a G-invariant
    polytope P onto its fixed slice P cap V^G.
    """
    n = len(group.elements[0])
    return tuple(
        tuple(sum(g[i][j] for g in group.elements) for j in range(n)) for i in range(n)
    )


def fixed_space_dimension(group):
    """dim V^G = tr(S)/|G|, the trace of the projection S/|G|."""
    s = group_sum(group)
    trace = sum(s[i][i] for i in range(len(s)))
    if trace % group.order:
        raise InvariantViolation("trace of the group sum is not a multiple of |G|")
    return trace // group.order


@dataclass(frozen=True)
class RootData:
    """Roots m with <m, v> = -1 on exactly one ray and >= 0 elsewhere.

    `roots[i]` is (m, paired_ray_index).  Semisimple roots have -m also a
    root; the unipotent ones are the rest.
    """

    roots: tuple
    semisimple: tuple
    unipotent: tuple

    @property
    def root_set(self):
        return frozenset(m for m, _ in self.roots)

    def is_centrally_lattice_symmetric(self):
        return self.root_set == frozenset(vec_scale(-1, m) for m in self.root_set)

    def paired_ray(self, m):
        for root, idx in self.roots:
            if root == m:
                return idx
        raise ValidationError(f"{m} is not a root")


@lru_cache(maxsize=256)
def roots(f):
    """R(P) from one pass over the lattice points of P = {<m, v> >= -1}.

    A point m of P is a root paired to ray i when <m, v_i> = -1 and every
    other pairing is >= 0.  The roots are listed by ray, and by the
    lexicographic order of the points within a ray.
    """
    if not is_complete(f):
        raise ValidationError("roots are computed for complete fans only")
    out = []
    for m in enumerate_lattice_points(polytope_from_fan(f)):
        vals = [dot(m, v) for v in f.rays]
        if vals.count(-1) == 1:  # on P every other pairing is then >= 0
            out.append((m, vals.index(-1)))
    out.sort(key=lambda root: root[1])
    root_set = frozenset(m for m, _ in out)
    semis = tuple(
        (m, i) for m, i in out if tuple(-x for x in m) in root_set
    )
    unip = tuple((m, i) for m, i in out if tuple(-x for x in m) not in root_set)
    data = RootData(roots=tuple(out), semisimple=semis, unipotent=unip)
    for m, i in data.roots:
        vals = [dot(m, v) for v in f.rays]
        if vals[i] != -1 or any(vals[j] < 0 for j in range(len(vals)) if j != i):
            raise InvariantViolation("root pairing check failed")
    return data


@dataclass(frozen=True)
class SymmetryClassification:
    centrally_symmetric: bool
    bs_symmetric: bool
    centrally_lattice_symmetric: bool
    fixed_space_dimension: int


def classify_symmetry(f):
    """The three symmetry notions for a Fano fan.

    (a) vertex-set central symmetry P = -P; (b) only 0 is fixed by Aut P;
    (c) R(P) = -R(P).  The empty root set passes (c) by convention.
    """
    if not is_fano(f):
        raise NonFanoError("symmetry classification requires a Fano fan")
    p = polytope_from_fan(f)
    vset = set(p.vertices)
    central = vset == set(tuple(-x for x in v) for v in vset)
    fixed = fixed_space_dimension(polytope_automorphisms(p))
    lattice_sym = roots(f).is_centrally_lattice_symmetric()
    return SymmetryClassification(
        centrally_symmetric=central,
        bs_symmetric=fixed == 0,
        centrally_lattice_symmetric=lattice_sym,
        fixed_space_dimension=fixed,
    )


def rays_of_reflexive(p):
    """Recover the primitive ray generators -normal from an anticanonical P."""
    from .linalg import gcd_vector

    rays = []
    for a, rhs in p.inequalities:
        if rhs != 1 or gcd_vector(a) != 1:
            raise NonFanoError("polytope is not in anticanonical form")
        rays.append(vec_scale(-1, a))
    return tuple(rays)


@lru_cache(maxsize=256)
def aut0_subgroup(p, root_data=None):
    """Aut_0 P, the Weyl group W generated by the root reflections.

    A semisimple root m pairs to -1 with exactly one ray v_m and to +1 with
    exactly one ray v_-m, and to 0 with the rest; its reflection
    u -> u - <u, v_-m - v_m> m sends m to -m and swaps the two rays.  W is
    closed inside Aut P from these generators; a reflection outside Aut P
    breaks the theorem and raises.  Cached, so the symmetry stage and
    `demazure_report` of one `analyze` share one closure.
    """
    rays = rays_of_reflexive(p)
    if root_data is None:
        root_data = roots(Fan.from_rays(rays))
    n = p.dim
    reflections = []
    for m, _ in root_data.semisimple:
        pairings = [dot(m, v) for v in rays]
        if pairings.count(-1) != 1 or pairings.count(1) != 1:
            raise InvariantViolation(f"semisimple root {m} does not pair with two rays")
        d = vec_sub(rays[pairings.index(1)], rays[pairings.index(-1)])
        reflections.append(
            tuple(tuple(int(i == j) - m[i] * d[j] for j in range(n)) for i in range(n))
        )
    try:
        return polytope_automorphisms(p).generated_by(reflections)
    except ValidationError:
        raise InvariantViolation("a root reflection does not lie in Aut P") from None
