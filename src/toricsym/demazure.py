"""Structure data of the automorphism group via the class-group grading.

One coordinate-ring variable per ray, graded by the divisor class group
(the cokernel of the ray pairing matrix).  Rays with equal class group
into blocks; the reductive part is a product of GL(block size) factors,
the unipotent radical has one parameter per unipotent root, and the
component group is Aut P / Aut_0 P in the smooth Fano case.

The grading is read off the root list: on a complete fan only 0 pairs
>= 0 with every ray, so dim S_{deg x_v} = 1 + #{roots paired with v}
(Demazure 1970; Cox, J. Algebraic Geom. 4, 1995).  The independent
oracle, a Fourier-Motzkin count of each Q_v, is in `tests/test_demazure.py`.
"""

from collections import Counter

from .errors import InvariantViolation, ValidationError
from .fan import is_complete, is_fano, is_simplicial, is_smooth, polytope_from_fan
from .linalg import dot, hermite_form, smith_normal_form, transpose
from .record import Record
from .symmetry import aut0_subgroup, polytope_automorphisms, roots


class ClassGroup(Record):
    """Cokernel of the pairing map M -> Z^rays, with per-ray degrees.

    A degree label is a pair (free part, torsion part).  The free part is
    canonical: it is the column Hermite form of the free coordinates, which
    is unique under a change of basis of Cl/torsion, so it depends only on
    the rays and their order.  The torsion coordinates are Smith
    coordinates, residues modulo each invariant factor > 1; they depend on
    the Smith transform and are not canonical.  Within one class group,
    equal labels mean equal classes.
    """

    __slots__ = (
        "free_rank",
        "torsion",  # invariant factors > 1
        "degree_of",  # per ray: (free tuple, torsion tuple)
    )


def class_group(f):
    """Divisor class group from the Smith form of the d x n pairing matrix."""
    if not is_complete(f):
        raise ValidationError("class group computed for complete fans only")
    n, d = f.dim, len(f.rays)
    dec = smith_normal_form(tuple(f.rays))  # row i is <., v_i> as a map M -> Z^d
    if 0 in dec.diagonal:
        raise ValidationError("rays do not span; fan cannot be complete")
    torsion = tuple(x for x in dec.diagonal if x > 1)
    free_rank = d - n

    # Degree of ray i = image of e_i in the cokernel: column i of the left
    # transform, whose rows n..d-1 are the free coordinates and whose row
    # j < n is a residue modulo diagonal entry j (the trivial Z/1 dropped).
    u = dec.left
    torsion_pos = [j for j, x in enumerate(dec.diagonal) if x > 1]
    free_rows = [tuple(u[j][i] for j in range(n, d)) for i in range(d)]
    canon = transpose(hermite_form(transpose(free_rows))[0])
    degrees = tuple(
        (canon[i], tuple(u[j][i] % dec.diagonal[j] for j in torsion_pos)) for i in range(d)
    )

    # The degree map must kill the image of M.
    tors_rows = [t for _, t in degrees]
    for img in zip(*f.rays):
        if any(dot(img, col) for col in zip(*canon)):
            raise InvariantViolation("degree map does not kill principal divisors")
        if any(dot(img, col) % mod for col, mod in zip(zip(*tors_rows), torsion)):
            raise InvariantViolation("torsion degree map fails on principal divisors")
    return ClassGroup(free_rank=free_rank, torsion=torsion, degree_of=degrees)


def _classes(cg):
    groups = {}
    for i, deg in enumerate(cg.degree_of):
        groups.setdefault(deg, []).append(i)
    return tuple((c, tuple(groups[c])) for c in sorted(groups))


def variable_classes(f):
    """Rays grouped by divisor class: the partition and the occupied classes."""
    return _classes(class_group(f))


def graded_dimension(f, alpha, classes=None):
    """dim S_alpha = 1 + #roots paired with any ray v0 of the class.

    The monomials of degree deg x_v0 are the lattice points of
    Q_v0 = {m : <m, v0> >= -1, <m, v> >= 0 for v != v0}.  On a complete
    fan only 0 pairs >= 0 with every ray, so the other points are the
    roots paired with v0, and the count is exact.  Independence of the
    representative is asserted; `graded_dimension_oracle` in
    `tests/test_demazure.py` counts Q_v0 by its own inequalities.
    """
    if classes is None:
        classes = variable_classes(f)
    table = dict(classes)
    if alpha not in table:
        raise ValidationError("class contains no coordinate variable")
    paired = Counter(i for _, i in roots(f).roots)
    counts = {1 + paired[i] for i in table[alpha]}
    if len(counts) != 1:
        raise InvariantViolation("graded dimension depends on the representative")
    return counts.pop()


def root_automorphism(f, m, root_data=None):
    """The substitution pair of a root: its ray and the exponent vector.

    The root automorphism sends x_{v0} to x_{v0} + lambda * x^D where
    D has exponent <m, v> on every other ray.
    """
    if root_data is None:
        root_data = roots(f)
    pairings = [dot(m, v) for v in f.rays]
    matches = [i for i, val in enumerate(pairings) if val == -1]
    if tuple(m) not in root_data.root_set or len(matches) != 1:
        raise ValidationError(f"{m} is not a root")
    v0 = matches[0]
    exponents = tuple(
        0 if i == v0 else pairings[i] for i in range(len(f.rays))
    )
    if any(e < 0 for e in exponents):
        raise ValidationError(f"{m} is not a root")
    return v0, exponents


class DemazureReport(Record):
    __slots__ = (
        "is_reductive",
        "unipotent_dim",
        "gs_factor_sizes",  # sorted multiset of |Delta_alpha|
        "graded_dims",  # of (class label, dim S_alpha)
        "dim_aut0",
        "weyl_order",  # int, or None when not computed
        "component_group_order",  # int, or None when not computed
        "class_group",
    )


def demazure_report(f):
    """All structure data, with the dimension identity asserted.

    dim Aut_0 X = sum |Delta_alpha| dim S_alpha - free rank of the class
    group, which must equal n + #R(P): it holds exactly when the rays of
    each class have equally many roots.  Weyl and component group orders
    are reported only for smooth Fano fans.
    """
    if not is_simplicial(f):
        raise ValidationError("structure report requires a simplicial fan")
    if not is_complete(f):
        raise ValidationError("structure report requires a complete fan")
    cg = class_group(f)
    classes = _classes(cg)
    rd = roots(f)
    graded = tuple((a, graded_dimension(f, a, classes)) for a, _ in classes)
    sizes = tuple(sorted((len(members) for _, members in classes), reverse=True))
    if sum(sizes) != len(f.rays):
        raise InvariantViolation("class partition does not cover the rays")
    dim_tilde = sum(len(members) * dim for (_, members), (_, dim) in zip(classes, graded))
    dim_aut0 = dim_tilde - cg.free_rank
    if dim_aut0 != f.dim + len(rd.roots):
        raise InvariantViolation(
            "dimension identity failed: "
            f"{dim_tilde} - {cg.free_rank} != {f.dim} + {len(rd.roots)}"
        )
    # Lemma-level consistency: each root's monomial misses its own
    # variable and has the same degree as that variable.
    free_cols = tuple(zip(*(free for free, _ in cg.degree_of)))
    tors_cols = tuple(zip(*(tors for _, tors in cg.degree_of)))
    for m, _ in rd.roots:
        v0, exps = root_automorphism(f, m, rd)
        free_v0, tors_v0 = cg.degree_of[v0]
        if tuple(dot(exps, col) for col in free_cols) != free_v0 or any(
            (dot(exps, col) - t) % mod for col, t, mod in zip(tors_cols, tors_v0, cg.torsion)
        ):
            raise InvariantViolation("root monomial degree mismatch")

    weyl = component = None
    if is_smooth(f) and is_fano(f):
        p = polytope_from_fan(f)
        full = polytope_automorphisms(p)
        aut0 = aut0_subgroup(p, root_data=rd)
        if full.order % aut0.order != 0:
            raise InvariantViolation("Aut_0 P does not divide Aut P")
        weyl = aut0.order
        component = full.order // aut0.order
    return DemazureReport(
        is_reductive=not rd.unipotent,
        unipotent_dim=len(rd.unipotent),
        gs_factor_sizes=sizes,
        graded_dims=graded,
        dim_aut0=dim_aut0,
        weyl_order=weyl,
        component_group_order=component,
        class_group=cg,
    )
