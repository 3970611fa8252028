"""Oracles for the library's groups.

The library holds each group as strong generators and an order, found by
a stabilizer-chain search.  `all_lattice_maps` is the search it replaced:
every unimodular map permuting a point set, enumerated leaf by leaf, so
`aut_p_maps` and `aut_delta_maps` list Aut P and Aut Delta whole.
`elements_of` closes a group's generators on the matrices, and
`pairwise_group_check` checks the identity, every inverse and every
product of two elements, in O(|G|^2) matrix products.
`aut0_by_facet_predicate` is the element-by-element Aut_0 P that the Weyl
group replaced.  The other helpers are the trivial group and the ray list
of the del Pezzo variety V_n.
"""

from helpers_linalg import invert_rational
from toricsym.errors import InvariantViolation
from toricsym.fan import Fan
from toricsym.linalg import (
    dot,
    identity,
    integer_row,
    invert_unimodular,
    mat_mul,
    mat_vec,
    rank,
)
from toricsym.symmetry import LatticeAutGroup, rays_of_reflexive, roots

TRIVIAL_GROUP = LatticeAutGroup(generators=(), order=1)


def all_lattice_maps(points, pair_profiles, fingerprints, n):
    """All unimodular matrices permuting `points`, as {matrix: permutation}.

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
    index_of = {p: i for i, p in enumerate(points)}
    results = {}
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
            if all(
                pair_profiles[frame[q]][f] == pair_profiles[images[q]][cand]
                for q in range(pos)
            ):
                images.append(cand)
                extend(pos + 1, images)
                images.pop()

    extend(0, [])
    return results


def aut_p_maps(p):
    """Every element of Aut P with its vertex permutation."""
    verts = tuple(tuple(int(x) for x in v) for v in p.vertices)
    facets = [(a, int(rhs)) for a, rhs in p.inequalities]
    fingerprints = [tuple(sorted((dot(a, v), rhs) for a, rhs in facets)) for v in verts]
    pair_profiles = [
        [tuple(sorted((dot(a, v), dot(a, w), rhs) for a, rhs in facets)) for w in verts]
        for v in verts
    ]
    return all_lattice_maps(verts, pair_profiles, fingerprints, p.dim)


def aut_delta_maps(f):
    """Every element of Aut Delta with its ray permutation."""
    r = range(len(f.rays))
    fingerprints = [
        (sum(1 for c in f.max_cones if i in c),
         tuple(sorted(len(c) for c in f.max_cones if i in c)))
        for i in r
    ]
    shared = [
        [tuple(sorted((len(c),) for c in f.max_cones if i in c and j in c)) for j in r]
        for i in r
    ]
    cone_sets = set(f.max_cones)
    return {
        g: perm
        for g, perm in all_lattice_maps(f.rays, shared, fingerprints, f.dim).items()
        if {tuple(sorted(perm[i] for i in cone)) for cone in f.max_cones} == cone_sets
    }


def elements_of(group, n):
    """Every element of `group`, closed from its generators on the matrices."""
    closure = frontier = {identity(n)}
    while frontier:
        frontier = {mat_mul(a, s) for a in frontier for s in group.generators} - closure
        closure = closure | frontier
    return closure


def pairwise_group_check(elements):
    elems = set(elements)
    if identity(len(next(iter(elems)))) not in elems:
        raise InvariantViolation("identity missing from automorphism set")
    for a in elems:
        if invert_unimodular(a) not in elems:
            raise InvariantViolation("automorphism set not closed under inverse")
        for b in elems:
            if mat_mul(a, b) not in elems:
                raise InvariantViolation("automorphism set not closed under product")
    return True


def v_n_rays(n):
    """Rays of V_n (Voskresenskij-Klyachko): +-e_i and +-(e_1 + ... + e_n)."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ones = (1,) * n
    return tuple(units + [tuple(-x for x in e) for e in units] + [ones, tuple(-x for x in ones)])


def aut0_by_facet_predicate(p, root_data=None):
    """Aut_0 P by testing every element of Aut P, as a set of matrices.

    An element passes if every facet F it moves satisfies
    -F intersect image(F) intersect R(P) nonempty.  Facet i of an
    anticanonical polytope pairs with ray i = -normal_i.
    """
    rays = rays_of_reflexive(p)
    if root_data is None:
        root_data = roots(Fan.from_rays(rays))
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

    chosen = set()
    for g, vperm in aut_p_maps(p).items():
        fperm = [p.incidence.index(frozenset(vperm[i] for i in tight)) for tight in p.incidence]
        if all(fperm[fi] == fi or facet_condition(fi, fperm[fi]) for fi in range(len(fperm))):
            chosen.add(g)
    return chosen
