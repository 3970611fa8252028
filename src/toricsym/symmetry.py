"""Finite lattice symmetry groups, roots, and the symmetry classifications.

Aut P is the subgroup of GL(n, Z) preserving the polytope; Aut Delta the
subgroup preserving the fan.  For a Fano fan the two are exchanged by
transposition, so Fano paths search Aut P only; `fan_automorphisms` serves
non-Fano fans and is the oracle for the transpose.  Roots are the lattice
points in relative interiors of facets, split into semisimple and unipotent.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InvariantViolation,
    NonFanoError,
    NonLatticePolytopeError,
    ValidationError,
)
from .fan import is_complete, is_fano, polytope_from_fan
from .latticecount import enumerate_lattice_points
from .linalg import (
    dot,
    integer_row,
    invert_rational,
    is_unimodular,
    kernel_basis,
    mat_vec,
    rank,
    transpose,
    vec_scale,
)
from .polytope import is_lattice_polytope


@dataclass(frozen=True)
class LatticeAutGroup:
    """A finite group of unimodular matrices with its induced permutations.

    `vertex_permutations[g][i]` is the index of element g applied to
    vertex i; facet permutations likewise.  For fan-side groups the same
    slots hold ray and cone permutations.
    """

    elements: tuple  # of integer matrix tuples
    vertex_permutations: tuple
    facet_permutations: tuple

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
        gens, closure = [], {ident}
        for g in perms:
            if g not in closure:
                gens.append(g)
                # closed under the old generators: times g, then new times all
                frontier, step = closure, (g,)
                while frontier:
                    fresh = {tuple(a[i] for i in s) for a in frontier for s in step}
                    fresh -= closure
                    if not fresh <= elems:
                        raise InvariantViolation("automorphism set not closed under product")
                    closure, frontier, step = closure | fresh, fresh, gens
        return True


def _perm_of(mapped, index_of):
    return tuple(index_of[m] for m in mapped)


def _search_lattice_maps(points, pair_profiles, fingerprints, n):
    """All unimodular matrices permuting `points`, by frame search.

    A frame of n linearly independent points is fixed; candidate images
    are pruned by per-point fingerprints and pairwise profiles before the
    matrix is solved and checked exactly.
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

    point_set = set(points)
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
            if not is_unimodular(sigma):
                return
            mapped = [tuple(mat_vec(sigma, p)) for p in points]
            if set(mapped) != point_set:
                return
            results[sigma] = _perm_of(mapped, index_of)
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
    facets = p.inequalities
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

    elements = sorted(found)
    vperms = tuple(found[g] for g in elements)
    fperms = []
    for g, vperm in zip(elements, vperms):
        fp = []
        for tight in p.incidence:
            image = frozenset(vperm[i] for i in tight)
            fp.append(p.incidence.index(image))
        fperms.append(tuple(fp))
    group = LatticeAutGroup(
        elements=tuple(elements),
        vertex_permutations=vperms,
        facet_permutations=tuple(fperms),
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

    elements = []
    ray_perms = []
    cone_perms = []
    index_of = {r: i for i, r in enumerate(rays)}
    for g, perm in sorted(found.items()):
        mapped_cones = set(
            tuple(sorted(perm[i] for i in cone)) for cone in f.max_cones
        )
        if mapped_cones != cone_sets:
            continue
        elements.append(g)
        ray_perms.append(perm)
        cone_perms.append(
            tuple(
                f.max_cones.index(tuple(sorted(perm[i] for i in cone)))
                for cone in f.max_cones
            )
        )
    group = LatticeAutGroup(
        elements=tuple(elements),
        vertex_permutations=tuple(ray_perms),
        facet_permutations=tuple(cone_perms),
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
    fixed = fixed_subspace(polytope_automorphisms(p))
    bs = len(fixed) == 0
    lattice_sym = roots(f).is_centrally_lattice_symmetric()
    return SymmetryClassification(
        centrally_symmetric=central,
        bs_symmetric=bs,
        centrally_lattice_symmetric=lattice_sym,
        fixed_space_dimension=len(fixed),
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


def aut0_subgroup(p, root_data=None):
    """The subgroup of Aut P acting trivially on divisor classes.

    An element passes if every facet F it moves satisfies
    -F intersect image(F) intersect R(P) nonempty.  Facet i of an
    anticanonical polytope pairs with ray i = -normal_i.
    """
    rays = rays_of_reflexive(p)
    if root_data is None:
        from .fan import Fan

        root_data = roots(Fan.from_rays(rays))
    group = polytope_automorphisms(p)
    # Re-key each root by the facet it is interior to, in this polytope's
    # facet order (caller-provided root data may use another ray order).
    roots_by_ray = {}
    for m, _ in root_data.roots:
        fi = next(i for i, v in enumerate(rays) if dot(m, v) == -1)
        roots_by_ray.setdefault(fi, []).append(m)

    def facet_condition(fi, fj):
        # Some root m interior to facet fj with -m lying on facet fi.
        vi = rays[fi]
        for m in roots_by_ray.get(fj, ()):
            if dot(m, vi) == 1 and all(dot(m, v) <= 1 for v in rays):
                return True
        return False

    chosen = []
    for gi, g in enumerate(group.elements):
        fperm = group.facet_permutations[gi]
        if all(
            fperm[fi] == fi or facet_condition(fi, fperm[fi])
            for fi in range(len(fperm))
        ):
            chosen.append(gi)
    sub = LatticeAutGroup(
        elements=tuple(group.elements[i] for i in chosen),
        vertex_permutations=tuple(group.vertex_permutations[i] for i in chosen),
        facet_permutations=tuple(group.facet_permutations[i] for i in chosen),
    )
    sub.check_group_axioms()
    return sub


def trivial_subgroup(n):
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return LatticeAutGroup(
        elements=(ident,), vertex_permutations=((),), facet_permutations=((),)
    )
