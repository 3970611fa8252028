"""Tour of the five toric del Pezzo surfaces.

Walks through the polytopes, their lattice automorphisms, roots, and the
three symmetry notions, ending with the canonical-metric verdicts: the
plane, the quadric, and the degree-6 surface are K-polystable, while the
one- and two-point blow-ups are unstable with unipotent directions.
"""

from toricsym import (
    classify_symmetry,
    metric_verdicts,
    polytope_automorphisms,
    polytope_from_fan,
    roots,
)
from toricsym.datasets import load_bundled

NAMES = ["p2", "p1xp1", "dp3", "dp1", "dp2"]

for name in NAMES:
    fan = load_bundled(name)
    p = polytope_from_fan(fan)
    print(f"== {name}  (dimension {fan.dim}, {len(fan.rays)} rays)")
    print("   polytope vertices:", [tuple(map(int, v)) for v in p.vertices])

    aut = polytope_automorphisms(p)
    print(f"   |Aut P| = {aut.order}")

    rd = roots(fan)
    print(f"   roots: {sorted(rd.root_set) or 'none'}")
    print(f"   semisimple: {sorted(m for m, _ in rd.semisimple) or 'none'}")
    print(f"   unipotent:  {sorted(m for m, _ in rd.unipotent) or 'none'}")

    cls = classify_symmetry(fan)
    print(
        "   centrally symmetric:",
        cls.centrally_symmetric,
        "| fixed only 0:",
        cls.bs_symmetric,
        "| R(P) = -R(P):",
        cls.centrally_lattice_symmetric,
    )

    verdict = metric_verdicts(fan, k_budget=2)
    status = "Kaehler-Einstein" if verdict.ke_exists else "K-unstable"
    print(f"   delta = {verdict.delta}  ->  {status}")
    print()
