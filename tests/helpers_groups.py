"""Oracle and broken inputs for `LatticeAutGroup.check_group_axioms`.

The library checks a group by closure from generators on the induced
permutations.  `pairwise_group_check` is the check it replaced: the
identity, every inverse and every product of two elements, on the
matrices, in O(|G|^2) matrix products.  The other helpers build sets that
are not groups from a group that is.
"""

from toricsym.errors import InvariantViolation
from toricsym.linalg import identity, invert_unimodular, mat_mul
from toricsym.symmetry import LatticeAutGroup


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
    """The group with element i and its two permutations left out."""
    keep = [j for j in range(group.order) if j != i]
    return LatticeAutGroup(
        elements=tuple(group.elements[j] for j in keep),
        vertex_permutations=tuple(group.vertex_permutations[j] for j in keep),
        facet_permutations=tuple(group.facet_permutations[j] for j in keep),
    )


def with_extra_element(sub, full):
    """`sub` plus the first element of `full` outside it."""
    extra = next(i for i, g in enumerate(full.elements) if g not in sub.elements)
    return LatticeAutGroup(
        elements=sub.elements + (full.elements[extra],),
        vertex_permutations=sub.vertex_permutations + (full.vertex_permutations[extra],),
        facet_permutations=sub.facet_permutations + (full.facet_permutations[extra],),
    )


def with_repeated_permutation(group):
    """The same matrices, one non-identity element given another's permutation."""
    e = identity_index(group)
    i, j = [k for k in range(group.order) if k != e][:2]
    perms = list(group.vertex_permutations)
    perms[i] = perms[j]
    return LatticeAutGroup(
        elements=group.elements,
        vertex_permutations=tuple(perms),
        facet_permutations=group.facet_permutations,
    )
