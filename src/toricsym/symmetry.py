"""Finite lattice symmetry groups, roots, and the symmetry classifications.

Aut P is the subgroup of GL(n, Z) preserving the polytope; Aut Delta the
subgroup preserving the fan.  For a Fano fan the two are exchanged by
transposition, so Fano paths search Aut P only; `fan_automorphisms` serves
non-Fano fans and is the oracle for the transpose.  Every group is held as
strong generators and an order, and nothing walks its elements: the fixed
subspace V^G is the common kernel of g - I over the generators, and alpha
projects onto it along the sum of the images of g - I.  Roots are the
lattice points in relative interiors of facets, split into semisimple and
unipotent.  Aut_0 P is the Weyl group W (Demazure's structure theorem),
generated by one reflection per semisimple root; its order is read off the
ray transpositions of those reflections.
"""

from functools import lru_cache
from math import factorial, prod

from .errors import (
    InvariantViolation,
    NonFanoError,
    NonLatticePolytopeError,
    ValidationError,
)
from .fan import Fan, is_complete, is_fano, polytope_from_fan
from .latticecount import enumerate_lattice_points
from .linalg import (
    adjugate,
    dot,
    identity,
    independent_rows,
    kernel_basis,
    mat_vec,
    transpose,
    vec_scale,
    vec_sub,
)
from .polytope import is_lattice_polytope
from .record import Record


class LatticeAutGroup(Record):
    """A finite group of unimodular matrices, as generators and an order.

    The generators are integer matrix tuples; the trivial group has none.
    Fixed points, alpha and the Weyl order are read from the generators,
    so the elements are never listed.
    """

    __slots__ = ("generators", "order")


def _orbit(point, perms):
    """The orbit of a point index under the group generated by `perms`."""
    orbit, frontier = {point}, [point]
    while frontier:
        fresh = {q[i] for i in frontier for q in perms} - orbit
        orbit.update(fresh)
        frontier = fresh
    return orbit


def _search_lattice_maps(points, fingerprints, pair_row, n, keep=None):
    """Strong generators and the order of the unimodular maps permuting `points`.

    A frame f_0..f_{n-1} of linearly independent points is fixed; a map is
    determined by the frame's images, which are pruned by per-point
    fingerprints and by the pairwise profiles `pair_row(i)[j]` against the
    earlier images, then solved and checked exactly.  An integral matrix
    permuting a spanning set has finite order, so its determinant is +-1.
    `keep(perm)`, when given, must also accept the point permutation.

    This is the stabilizer-chain search of Sims.  Level i runs from n-1
    down to 0 with f_0..f_{i-1} fixed.  A candidate image of f_i already in
    the orbit of f_i under the generators found so far is skipped (they all
    fix f_0..f_{i-1}); for any other, the first map sending f_i there, if
    one exists, becomes a new generator.  The orbit then is that of the
    level's stabilizer, and |G| is the product of the orbit lengths.
    Profile rows are built only for frame points and images tried.
    """
    m = len(points)
    frame = list(independent_rows(points))
    if len(frame) < n:
        raise ValidationError("points do not span the space")

    index_of = {p: i for i, p in enumerate(points)}
    # sigma maps frame point r to image r, so sigma = B^T (F^T)^-1 for the
    # frame rows F and the image rows B: entry (i, j) is column i of B
    # dotted with row j of F^-1 = adj(F) / det(F).
    adj, den = adjugate([points[f] for f in frame])
    rows = {}

    def row(i):
        if i not in rows:
            rows[i] = pair_row(i)
        return rows[i]

    def candidates(images):
        f = frame[len(images)]
        want = [(row(img), row(frame[q])[f]) for q, img in enumerate(images)]
        return [
            c
            for c in range(m)
            if fingerprints[c] == fingerprints[f] and all(r[c] == w for r, w in want)
        ]

    def leaf(images):
        sigma = []
        for col in zip(*(points[i] for i in images)):
            entries = [divmod(dot(col, w), den) for w in adj]
            if any(r for _, r in entries):
                return None
            sigma.append(tuple(q for q, _ in entries))
        sigma = tuple(sigma)
        perm = []
        for p in points:
            i = index_of.get(mat_vec(sigma, p))
            if i is None:
                return None
            perm.append(i)
        if len(set(perm)) < m or (keep is not None and not keep(perm)):
            return None
        return sigma, tuple(perm)

    def first_map(images):
        if len(images) == n:
            return leaf(images)
        for c in candidates(images):
            found = first_map(images + [c])
            if found:
                return found
        return None

    generators, perms, order = [], [], 1
    for level in reversed(range(n)):
        prefix = frame[:level]
        orbit = _orbit(frame[level], perms)
        for c in candidates(prefix):
            if c not in orbit:
                found = first_map(prefix + [c])
                if found:
                    generators.append(found[0])
                    perms.append(found[1])
                    orbit = _orbit(frame[level], perms)
        order *= len(orbit)
    return tuple(generators), order


@lru_cache(maxsize=256)
def polytope_automorphisms(p):
    """Aut P for a full-dimensional lattice polytope.

    Frame search seeded by vertex fingerprints (pairings against every
    facet), verified by exact vertex-set preservation.  On a Fano fan
    Aut Delta is its transpose.
    """
    if not is_lattice_polytope(p):
        raise NonLatticePolytopeError(
            "lattice automorphisms are defined for lattice polytopes"
        )
    verts = tuple(tuple(int(x) for x in v) for v in p.vertices)
    # integral normals and vertices: the right-hand sides are integers
    rhs = [int(r) for _, r in p.inequalities]
    vals = [[dot(a, v) for a, _ in p.inequalities] for v in verts]
    fingerprints = [tuple(sorted(zip(x, rhs))) for x in vals]

    def pair_row(i):
        return [tuple(sorted(zip(vals[i], x, rhs))) for x in vals]

    generators, order = _search_lattice_maps(verts, fingerprints, pair_row, p.dim)
    return LatticeAutGroup(generators=generators, order=order)


@lru_cache(maxsize=256)
def fan_automorphisms(f):
    """Aut Delta: unimodular maps permuting the rays and the cones.

    The route for non-Fano fans.  On a Fano fan it is an oracle for the
    transpose of Aut P: the orders agree and every transposed generator
    maps P's vertex set onto itself.
    """
    if not is_complete(f):
        raise ValidationError("fan automorphisms computed for complete fans only")
    cones_of = [[c for c in f.max_cones if i in c] for i in range(len(f.rays))]
    fingerprints = [(len(cs), tuple(sorted(len(c) for c in cs))) for cs in cones_of]
    cone_sets = set(f.max_cones)

    def pair_row(i):
        return [
            tuple(sorted((len(c),) for c in cones_of[i] if j in c))
            for j in range(len(f.rays))
        ]

    def permutes_cones(perm):
        return {tuple(sorted(perm[i] for i in c)) for c in f.max_cones} == cone_sets

    generators, order = _search_lattice_maps(
        f.rays, fingerprints, pair_row, f.dim, keep=permutes_cones
    )
    if is_fano(f):
        p = polytope_from_fan(f)
        vertex_set = {tuple(int(x) for x in v) for v in p.vertices}  # a lattice polytope
        if order != polytope_automorphisms(p).order or any(
            {mat_vec(transpose(g), v) for v in vertex_set} != vertex_set for g in generators
        ):
            raise InvariantViolation("Aut Delta is not the transpose of Aut P")
    return LatticeAutGroup(generators=generators, order=order)


def fixed_subspace(generators, n):
    """Primitive integer basis of V^G in Q^n, G generated by `generators`.

    A vector is fixed by G exactly when every generator fixes it, so V^G is
    the common kernel of g - I over the generators; with none it is Q^n.
    """
    rows = [
        tuple(g[i][j] - (i == j) for j in range(n)) for g in generators for i in range(n)
    ]
    if not any(any(r) for r in rows):
        return identity(n)
    return kernel_basis(rows)


class RootData(Record):
    """Roots m with <m, v> = -1 on exactly one ray and >= 0 elsewhere.

    `roots[i]` is (m, paired_ray_index).  Semisimple roots have -m also a
    root; the unipotent ones are the rest.
    """

    __slots__ = ("roots", "semisimple", "unipotent")

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


class SymmetryClassification(Record):
    __slots__ = (
        "centrally_symmetric",
        "bs_symmetric",
        "centrally_lattice_symmetric",
        "fixed_space_dimension",
    )


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
    fixed = len(fixed_subspace(polytope_automorphisms(p).generators, f.dim))
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
    u -> u - <u, v_-m - v_m> m sends m to -m, and its transpose swaps v_m
    and v_-m and fixes every other ray.  Each reflection must map P onto
    itself, that is, its transpose must permute the facet normals -v_i:
    one outside Aut P breaks the theorem and raises.  The rays span N, so
    W acts faithfully on them as the group generated by those
    transpositions, and |W| is the product of (block size)! over the
    classes of rays they join.  Cached, so the symmetry stage and
    `demazure_report` of one `analyze` share one result.
    """
    rays = rays_of_reflexive(p)
    if root_data is None:
        root_data = roots(Fan.from_rays(rays))
    n = p.dim
    ray_set = set(rays)
    reflections = {}
    block = list(range(len(rays)))  # a class label per ray
    for m, _ in root_data.semisimple:
        pairings = [dot(m, v) for v in rays]
        if pairings.count(-1) != 1 or pairings.count(1) != 1:
            raise InvariantViolation(f"semisimple root {m} does not pair with two rays")
        lo, hi = pairings.index(-1), pairings.index(1)
        d = vec_sub(rays[hi], rays[lo])
        sigma = tuple(tuple(int(i == j) - m[i] * d[j] for j in range(n)) for i in range(n))
        if sigma in reflections:  # m and -m give one reflection
            continue
        if {mat_vec(transpose(sigma), v) for v in rays} != ray_set:
            raise InvariantViolation(f"the reflection of root {m} does not lie in Aut P")
        reflections[sigma] = None
        old, new = block[hi], block[lo]
        block = [new if b == old else b for b in block]
    order = prod(factorial(block.count(b)) for b in set(block))
    return LatticeAutGroup(generators=tuple(reflections), order=order)
