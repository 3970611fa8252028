"""Oracles for the library's groups, and broken inputs for its group check.

The library checks a group by closure from generators on the induced
permutations.  `pairwise_group_check` is the check it replaced: the
identity, every inverse and every product of two elements, on the
matrices, in O(|G|^2) matrix products.  `aut0_by_facet_predicate` is the
element-by-element Aut_0 P that the Weyl group replaced.  The other
helpers build sets that are not groups from a group that is, the trivial
group, and the ray list of the del Pezzo variety V_n.
"""

from toricsym.errors import InvariantViolation
from toricsym.fan import Fan
from toricsym.linalg import dot, identity, invert_unimodular, mat_mul
from toricsym.symmetry import (
    LatticeAutGroup,
    polytope_automorphisms,
    rays_of_reflexive,
    roots,
)


def pairwise_group_check(group):
    elems = set(group.elements)
    if identity(len(group.elements[0])) not in elems:
        raise InvariantViolation("identity missing from automorphism set")
    for a in group.elements:
        if invert_unimodular(a) not in elems:
            raise InvariantViolation("automorphism set not closed under inverse")
        for b in group.elements:
            if mat_mul(a, b) not in elems:
                raise InvariantViolation("automorphism set not closed under product")
    return True


def identity_index(group):
    return group.elements.index(identity(len(group.elements[0])))


def without_element(group, i):
    """The group with element i and its permutation left out."""
    keep = [j for j in range(group.order) if j != i]
    return LatticeAutGroup(
        elements=tuple(group.elements[j] for j in keep),
        vertex_permutations=tuple(group.vertex_permutations[j] for j in keep),
    )


def with_extra_element(sub, full):
    """`sub` plus the first element of `full` outside it."""
    extra = next(i for i, g in enumerate(full.elements) if g not in sub.elements)
    return LatticeAutGroup(
        elements=sub.elements + (full.elements[extra],),
        vertex_permutations=sub.vertex_permutations + (full.vertex_permutations[extra],),
    )


def with_repeated_permutation(group):
    """The same matrices, one non-identity element given another's permutation."""
    e = identity_index(group)
    i, j = [k for k in range(group.order) if k != e][:2]
    perms = list(group.vertex_permutations)
    perms[i] = perms[j]
    return LatticeAutGroup(elements=group.elements, vertex_permutations=tuple(perms))


def trivial_subgroup(n):
    return LatticeAutGroup(elements=(identity(n),), vertex_permutations=((),))


def v_n_rays(n):
    """Rays of V_n (Voskresenskij-Klyachko): +-e_i and +-(e_1 + ... + e_n)."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ones = (1,) * n
    return tuple(units + [tuple(-x for x in e) for e in units] + [ones, tuple(-x for x in ones)])


def aut0_by_facet_predicate(p, root_data=None):
    """Aut_0 P by testing every element of Aut P.

    An element passes if every facet F it moves satisfies
    -F intersect image(F) intersect R(P) nonempty.  Facet i of an
    anticanonical polytope pairs with ray i = -normal_i.
    """
    rays = rays_of_reflexive(p)
    if root_data is None:
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
    for gi, vperm in enumerate(group.vertex_permutations):
        fperm = [p.incidence.index(frozenset(vperm[i] for i in tight)) for tight in p.incidence]
        if all(fperm[fi] == fi or facet_condition(fi, fperm[fi]) for fi in range(len(fperm))):
            chosen.append(gi)
    sub = LatticeAutGroup(
        elements=tuple(group.elements[i] for i in chosen),
        vertex_permutations=tuple(group.vertex_permutations[i] for i in chosen),
    )
    sub.check_group_axioms()
    return sub
