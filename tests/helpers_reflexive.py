"""Brute-force enumeration of the reflexive polygons, for test use.

A complete 2-d fan is a cyclic sequence of primitive rays in strictly
increasing angular order; the anticanonical polygon is reflexive exactly
when every pair of consecutive rays (u, v) has an integral intersection
vertex, i.e. det(u, v) divides both coordinate differences.  All ray
configurations live (up to lattice equivalence) inside the box [-3,3]^2,
so a depth-first search over angularly sorted primitive vectors finds
every class; classes are then separated by explicit lattice equivalence.
"""

from itertools import product
from math import gcd

from toricsym.fan import Fan, polytope_from_fan


def primitive_box_vectors(bound=3):
    vecs = [
        (x, y)
        for x, y in product(range(-bound, bound + 1), repeat=2)
        if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1
    ]

    def angle_key(v):
        x, y = v
        if y > 0 or (y == 0 and x > 0):
            half = 0
        else:
            half = 1
        return (half, -x if half == 0 else x, y)

    # Sort by angle from the positive x-axis: within each half-plane the
    # cross product is a total order.
    import functools

    def cmp(u, v):
        hu = 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1
        hv = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
        if hu != hv:
            return hu - hv
        cross = u[0] * v[1] - u[1] * v[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(vecs, key=functools.cmp_to_key(cmp))


def _corner(u, v):
    """Integral vertex cut out by consecutive rays, or None.

    Solves <y, u> = <y, v> = -1; the solution is integral iff
    det(u, v) > 0 divides both coordinate differences.
    """
    d = u[0] * v[1] - u[1] * v[0]
    if d <= 0:
        return None
    if (u[1] - v[1]) % d or (v[0] - u[0]) % d:
        return None
    return ((u[1] - v[1]) // d, (v[0] - u[0]) // d)


def enumerate_reflexive_fans(bound=3):
    """Every complete reflexive 2-d fan with rays in the box, one fan per
    cyclic ray sequence (no equivalence reduction).

    A closing angularly increasing sequence with every consecutive corner
    integral and all corners distinct is exactly a reflexive normal fan.
    """
    vectors = primitive_box_vectors(bound)
    n = len(vectors)
    fans = []

    def extend(seq, corners):
        last = vectors[seq[-1]]
        first = vectors[seq[0]]
        if len(seq) >= 3:
            wrap = _corner(last, first)
            if wrap is not None:
                all_corners = corners + [wrap]
                rays = [vectors[i] for i in seq]
                if len(set(all_corners)) == len(all_corners) and all(
                    c[0] * v[0] + c[1] * v[1] >= -1
                    for c in all_corners
                    for v in rays
                ):
                    cones = [(i, (i + 1) % len(seq)) for i in range(len(seq))]
                    fans.append(Fan.make(2, rays, cones))
        if len(seq) == 6:
            return
        for j in range(seq[-1] + 1, n):
            c = _corner(last, vectors[j])
            if c is not None:
                seq.append(j)
                corners.append(c)
                extend(seq, corners)
                corners.pop()
                seq.pop()

    for start in range(n):
        extend([start], [])
    return fans


def _lattice_equivalent(vs1, vs2):
    """Is there a unimodular map sending vertex set vs1 onto vs2?"""
    if len(vs1) != len(vs2):
        return False
    vs2set = set(vs2)
    base = None
    for i in range(len(vs1)):
        for j in range(len(vs1)):
            u, v = vs1[i], vs1[j]
            if u[0] * v[1] - u[1] * v[0] != 0:
                base = (u, v)
                break
        if base:
            break
    u, v = base
    d = u[0] * v[1] - u[1] * v[0]
    for a in vs2:
        for b in vs2:
            if a[0] * b[1] - a[1] * b[0] == 0:
                continue
            # Solve M u = a, M v = b over the rationals; keep integer M.
            m00 = a[0] * v[1] - b[0] * u[1]
            m01 = b[0] * u[0] - a[0] * v[0]
            m10 = a[1] * v[1] - b[1] * u[1]
            m11 = b[1] * u[0] - a[1] * v[0]
            if any(x % d for x in (m00, m01, m10, m11)):
                continue
            m00, m01, m10, m11 = (x // d for x in (m00, m01, m10, m11))
            if abs(m00 * m11 - m01 * m10) != 1:
                continue
            if {(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in vs1} == vs2set:
                return True
    return False


def reflexive_polygon_classes(bound=3):
    """Representative fans of the reflexive polygons up to equivalence."""
    classes = []
    keys = []
    for fan in enumerate_reflexive_fans(bound):
        p = polytope_from_fan(fan)
        verts = tuple(sorted(tuple(int(x) for x in v) for v in p.vertices))
        npoints = len(verts)
        key = (len(fan.rays), npoints)
        placed = False
        for i, (k, rep_verts) in enumerate(zip(keys, classes)):
            if k == key and _lattice_equivalent(verts, rep_verts[1]):
                placed = True
                break
        if not placed:
            classes.append((fan, verts))
            keys.append(key)
    return [fan for fan, _ in classes]


def random_unimodular(rng, size=4, n=2):
    """A product of `size` random elementary moves on the n x n identity:
    add plus or minus one row to another, or swap two rows."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(size):
        kind = rng.randrange(3)
        i, j = (0, 1) if n == 2 else rng.sample(range(n), 2)
        if kind == 2:
            m[i], m[j] = m[j], m[i]
            continue
        if kind == 1:
            i, j = j, i
        c = rng.choice([-1, 1])
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return tuple(tuple(r) for r in m)


def transformed_fan(fan, m):
    rays = [
        (m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y)
        for x, y in fan.rays
    ]
    return Fan.make(2, rays, fan.max_cones)
