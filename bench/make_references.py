"""Write the benchmark's exact reference outputs from the program as it is now.

    python3 bench/make_references.py

References are regenerated only when a change is meant to alter an output;
a change that claims a speed-up must leave them as they are.  Written:

- references/bundled/<fan>.json, references/ladder/<fan>.json: the stdout of
  `toricsym analyze FILE`, byte for byte, with FILE the path the benchmark
  passes;
- references/scan.json: Bc_k and the lattice point count of every scan job;
- references/rigidity.json: for each polytope of the default pool seed, the
  vertices, Ehrhart coefficients, Bc_k for k = 1..n+1 and whether every
  Bc_k vanishes, plus the zero-branch count.
"""

import json
import sys

from run import ROOT  # noqa: F401  (puts src/ and bench/ on sys.path)
import workloads as wl


def cli_references(workload):
    workload.setup()
    target = workload.ref_dir
    target.mkdir(parents=True, exist_ok=True)
    for name in workload.names():
        outcome = workload.run(name, workload.op_limit)
        if outcome.status != "ok":
            sys.exit(f"{workload.label} {name}: {outcome.status} {outcome.detail}")
        (target / f"{name}.json").write_bytes(outcome.output)


def scan_reference():
    from toricsym.families import futaki_rays
    from toricsym.fan import Fan, polytope_from_fan
    from toricsym.latticecount import count_lattice_points, quantized_barycenter

    out = {}
    for name, k in wl.SCAN_JOBS:
        a, b = (int(x) for x in name.split("_")[1:])
        p = polytope_from_fan(Fan.from_rays(futaki_rays(a, b)))
        out[f"{name}@k={k}"] = {
            "bc": [wl.rat(x) for x in quantized_barycenter(p, k)],
            "points": count_lattice_points(p, k),
        }
    return out


def rigidity_reference():
    polytopes = []
    for verts in wl.criterion4_vertex_sets(wl.DEFAULT_POOL_SEED, wl.RIGIDITY_COUNT):
        out = wl.criterion4_pipeline(verts)
        polytopes.append({
            "vertices": [list(v) for v in verts],
            "ehrhart": [wl.rat(c) for c in out["ehrhart"]],
            "bc_k": [[wl.rat(x) for x in bc] for bc in out["bc_k"]],
            "zero_branch": out["zero_branch"],
        })
    return {
        "pool_seed": wl.DEFAULT_POOL_SEED,
        "zero_branch_count": sum(p["zero_branch"] for p in polytopes),
        "polytopes": polytopes,
    }


def write_json(path, data):
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    cli_references(wl.Bundled(seed=0))
    cli_references(wl.Ladder(seed=0))
    write_json(wl.REFS / "scan.json", scan_reference())
    write_json(wl.REFS / "rigidity.json", rigidity_reference())


if __name__ == "__main__":
    main()
