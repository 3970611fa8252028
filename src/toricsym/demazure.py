"""Structure data of the automorphism group via the class-group grading.

One coordinate-ring variable per ray, graded by the divisor class group
(the cokernel of the ray pairing matrix).  Rays with equal class group
into blocks; the reductive part is a product of GL(block size) factors,
the unipotent radical has one parameter per unipotent root, and the
component group is Aut P / Aut_0 P in the smooth Fano case.
"""

from dataclasses import dataclass

from .errors import InvariantViolation, ValidationError
from .fan import is_complete, is_fano, is_simplicial, is_smooth, polytope_from_fan
from .latticecount import enumerate_lattice_points
from .linalg import dot, smith_normal_form
from .symmetry import aut0_subgroup, polytope_automorphisms, roots


@dataclass(frozen=True)
class ClassGroup:
    """Cokernel of the pairing map M -> Z^rays, with per-ray degrees.

    A degree label is a pair (free part, torsion part); the free
    coordinates are canonicalized by a column Hermite form so equal labels
    mean equal divisor classes.
    """

    free_rank: int
    torsion: tuple  # invariant factors > 1
    degree_of: tuple  # per ray: (free tuple, torsion tuple)


def _column_hermite(rows):
    """Canonical column form (unique under right GL(r, Z)-action)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return tuple(tuple(r) for r in m)
    nrows, ncols = len(m), len(m[0])
    col = 0
    for row in range(nrows):
        if col >= ncols:
            break
        piv = None
        for j in range(col, ncols):
            if m[row][j] != 0:
                piv = j
                break
        if piv is None:
            continue
        for i in range(nrows):
            m[i][col], m[i][piv] = m[i][piv], m[i][col]
        while True:
            nz = [j for j in range(col + 1, ncols) if m[row][j] != 0]
            if not nz:
                break
            for j in nz:
                q = m[row][j] // m[row][col]
                for i in range(nrows):
                    m[i][j] -= q * m[i][col]
                if m[row][j] != 0:
                    for i in range(nrows):
                        m[i][col], m[i][j] = m[i][j], m[i][col]
        if m[row][col] < 0:
            for i in range(nrows):
                m[i][col] = -m[i][col]
        for j in range(col):
            q = m[row][j] // m[row][col]
            for i in range(nrows):
                m[i][j] -= q * m[i][col]
        col += 1
    return tuple(tuple(r) for r in m)


def class_group(f):
    """Divisor class group from the Smith form of the d x n pairing matrix."""
    if not is_complete(f):
        raise ValidationError("class group computed for complete fans only")
    n, d = f.dim, len(f.rays)
    pairing = tuple(f.rays)  # row i is <., v_i> as a map M -> Z^d
    dec = smith_normal_form(pairing)
    diag = list(dec.diagonal) + [0] * (d - len(dec.diagonal))
    if any(x == 0 for x in dec.diagonal):
        raise ValidationError("rays do not span; fan cannot be complete")
    torsion = tuple(x for x in dec.diagonal if x > 1)
    free_rank = d - n

    # Degree of ray i = image of e_i in the cokernel, in Smith coordinates
    # (left transform applied), dropping the trivial Z/1 factors.
    torsion_pos = [j for j, x in enumerate(diag) if x > 1]
    free_pos = [j for j in range(d) if j >= len(dec.diagonal) or diag[j] == 0]
    u = dec.left
    free_rows = []
    tors_parts = []
    for i in range(d):
        col = tuple(u[j][i] for j in range(d))
        free_rows.append(tuple(col[j] for j in free_pos))
        tors_parts.append(tuple(col[j] % diag[j] for j in torsion_pos))
    canon = _column_hermite(free_rows)
    degrees = tuple(
        (canon[i], tors_parts[i]) for i in range(d)
    )

    # The degree map must kill the image of M.
    for basis_idx in range(n):
        img = [f.rays[i][basis_idx] for i in range(d)]
        free_sum = [0] * free_rank
        for i in range(d):
            for j in range(free_rank):
                free_sum[j] += img[i] * degrees[i][0][j]
        if any(x != 0 for x in free_sum):
            raise InvariantViolation("degree map does not kill principal divisors")
        for tj, modulus in enumerate(torsion):
            s = sum(img[i] * degrees[i][1][tj] for i in range(d))
            if s % modulus != 0:
                raise InvariantViolation("torsion degree map fails on principal divisors")
    return ClassGroup(free_rank=free_rank, torsion=torsion, degree_of=degrees)


def variable_classes(f):
    """Rays grouped by divisor class: the partition and the occupied classes."""
    cg = class_group(f)
    groups = {}
    for i, deg in enumerate(cg.degree_of):
        groups.setdefault(deg, []).append(i)
    classes = sorted(groups)
    return tuple((c, tuple(groups[c])) for c in classes)


def graded_dimension(f, alpha, classes=None):
    """dim S_alpha by lattice-point count of Q_v0 for a representative ray.

    Q_v0 = {m : <m, v0> >= -1, <m, v> >= 0 for v != v0}; its points are
    the monomials of degree alpha, so the count is 1 + #roots paired to
    the representative.  They are counted among the lattice points of the
    anticanonical polytope P, which contains Q_v0, against Q_v0's own
    inequalities, without reading the root list.  Independence of the
    representative is asserted.
    """
    if classes is None:
        classes = variable_classes(f)
    table = dict(classes)
    if alpha not in table:
        raise ValidationError("class contains no coordinate variable")
    points = enumerate_lattice_points(polytope_from_fan(f))
    counts = []
    for v0_idx in table[alpha]:
        counts.append(sum(
            all(dot(m, v) >= (-1 if j == v0_idx else 0) for j, v in enumerate(f.rays))
            for m in points
        ))
    if len(set(counts)) != 1:
        raise InvariantViolation("graded dimension depends on the representative")
    return counts[0]


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


@dataclass(frozen=True)
class DemazureReport:
    is_reductive: bool
    unipotent_dim: int
    gs_factor_sizes: tuple  # sorted multiset of |Delta_alpha|
    graded_dims: tuple  # of (class label, dim S_alpha)
    dim_aut0: int
    weyl_order: object  # int, or None when not computed
    component_group_order: object  # int, or None when not computed
    class_group: ClassGroup


def demazure_report(f):
    """All structure data, with the two-route dimension identity asserted.

    dim Aut_0 X = sum |Delta_alpha| dim S_alpha - free rank of the class
    group, which must equal n + #R(P).  Weyl and component group orders
    are reported only for smooth Fano fans.
    """
    if not is_simplicial(f):
        raise ValidationError("structure report requires a simplicial fan")
    if not is_complete(f):
        raise ValidationError("structure report requires a complete fan")
    cg = class_group(f)
    classes = variable_classes(f)
    rd = roots(f)
    graded = tuple((alpha, graded_dimension(f, alpha, classes)) for alpha, _ in classes)
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
    for m, _ in rd.roots:
        v0, exps = root_automorphism(f, m, rd)
        free = [0] * cg.free_rank
        tors = [0] * len(cg.torsion)
        for i, e in enumerate(exps):
            for j in range(cg.free_rank):
                free[j] += e * cg.degree_of[i][0][j]
            for j in range(len(cg.torsion)):
                tors[j] += e * cg.degree_of[i][1][j]
        deg_v0 = cg.degree_of[v0]
        if tuple(free) != deg_v0[0] or any(
            (t - d) % mod != 0 for t, d, mod in zip(tors, deg_v0[1], cg.torsion)
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
