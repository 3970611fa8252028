"""Structure of the automorphism group from the coordinate-ring grading.

One variable per ray, graded by the divisor class group.  Rays sharing a
class assemble GL blocks; roots contribute unipotent one-parameter
substitutions x_v -> x_v + lambda * (monomial of equal degree); the
finite part Aut_0 P is the Weyl group W, generated by one reflection
u -> u - <u, v_-m - v_m> m per semisimple root m, and the component group
is Aut P / W.  The dimension of the identity component can be computed
two independent ways, and the package asserts they agree on every call.
"""

from toricsym import (
    class_group,
    demazure_report,
    polytope_from_fan,
    root_automorphism,
    roots,
    variable_classes,
)
from toricsym.datasets import load_bundled

for name in ("p2", "p1xp1", "dp1", "dp2", "dp3", "weighted_112"):
    fan = load_bundled(name)
    cg = class_group(fan)
    rep = demazure_report(fan)
    sizes = rep.gs_factor_sizes
    gs = " x ".join(f"GL({s})" if s > 1 else "C*" for s in sizes)
    print(f"== {name}")
    print(f"   class group: Z^{cg.free_rank}"
          + (f" + torsion {list(cg.torsion)}" if cg.torsion else ""))
    print(f"   ray degrees: {[d[0] for d in cg.degree_of]}")
    print(f"   reductive part ~ {gs}")
    print(f"   unipotent dimension = {rep.unipotent_dim}")
    print(f"   dim Aut_0 X = {rep.dim_aut0}"
          f"  (= {fan.dim} + {len(roots(fan).roots)} roots)")
    if rep.component_group_order is not None:
        print(f"   Weyl order {rep.weyl_order}, component group order "
              f"{rep.component_group_order}")
    print()

# The substitution attached to each root of the one-point blow-up.
fan = load_bundled("dp1")
names = {0: "x1'", 1: "x2'", 2: "x0", 3: "y"}
print("root automorphisms of the one-point blow-up:")
for m, _ in roots(fan).roots:
    v0, exps = root_automorphism(fan, m)
    monomial = "*".join(
        names[i] + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(exps)
        if e
    )
    print(f"  root {m}:  {names[v0]} -> {names[v0]} + t*{monomial}")
