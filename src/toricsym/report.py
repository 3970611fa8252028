"""Aggregated analysis reports with deterministic JSON rendering.

Rationals are rendered as strings, `p` for integers and `p/q` otherwise,
never as floats; keys are snake_case and serialized sorted, so reports
are byte-for-byte reproducible.
"""

import json
from fractions import Fraction

# CPython's own SHA-256, which unlike `hashlib` does not load OpenSSL.
try:
    from _sha2 import sha256 as new_sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as new_sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as new_sha256

from .chain import verify_implication_chain
from .demazure import demazure_report
from .errors import ToricSymError, ValidationError
from .fan import is_complete, is_fano, is_simplicial, is_smooth, polytope_from_fan
from .latticecount import ehrhart_polynomial, quantized_barycenter
from .polytope import is_lattice_polytope, volume_and_barycenter
from .stability import metric_verdicts
from .symmetry import (
    aut0_subgroup,
    classify_symmetry,
    polytope_automorphisms,
    roots,
)


def rat(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def rat_vec(v):
    return [rat(x) for x in v]


def file_sha256(path):
    h = new_sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _stage(report, key, fn, enabled=True):
    if not enabled:
        report[key] = {"skipped": True}
        return None
    try:
        value = fn()
    except ToricSymError as exc:
        report[key] = {"error": str(exc), "type": type(exc).__name__}
        return None
    report[key] = value
    return value


def analyze(fan, name="<memory>", sha256=None, k_max=3, skip_demazure=False,
            skip_ehrhart=False):
    """Run the full pipeline on a fan and return a JSON-ready dict."""
    if k_max < 0:
        raise ValidationError("k_max must be a nonnegative integer")
    report = {
        "input": {"name": name, "sha256": sha256},
        "fan": {
            "dimension": fan.dim,
            "ray_count": len(fan.rays),
            "rays": [list(r) for r in fan.rays],
            "complete": is_complete(fan),
            "simplicial": is_simplicial(fan),
            "smooth": is_smooth(fan),
            "fano": is_fano(fan),
        },
    }

    def polytope_summary():
        p = polytope_from_fan(fan)
        vol, bc = volume_and_barycenter(p)
        return {
            "vertices": [rat_vec(v) for v in p.vertices],
            "lattice_polytope": is_lattice_polytope(p),
            "volume": rat(vol),
            "barycenter": rat_vec(bc),
        }

    _stage(report, "polytope", polytope_summary)

    def barycenters():
        p = polytope_from_fan(fan)
        return {
            str(k): rat_vec(quantized_barycenter(p, k)) for k in range(1, k_max + 1)
        }

    _stage(report, "quantized_barycenters", barycenters)

    def ehrhart():
        p = polytope_from_fan(fan)
        return {"coefficients": rat_vec(ehrhart_polynomial(p).coefficients)}

    _stage(report, "ehrhart", ehrhart, enabled=not skip_ehrhart)

    def root_summary():
        rd = roots(fan)
        return {
            "roots": [{"m": list(m), "ray": i} for m, i in rd.roots],
            "semisimple": [list(m) for m, _ in rd.semisimple],
            "unipotent": [list(m) for m, _ in rd.unipotent],
        }

    _stage(report, "roots", root_summary)

    def symmetry_summary():
        cls = classify_symmetry(fan)
        p = polytope_from_fan(fan)
        aut = polytope_automorphisms(p)
        aut0 = aut0_subgroup(p, root_data=roots(fan))
        return {
            "aut_p_order": aut.order,
            "aut0_p_order": aut0.order,
            "centrally_symmetric": cls.centrally_symmetric,
            "bs_symmetric": cls.bs_symmetric,
            "centrally_lattice_symmetric": cls.centrally_lattice_symmetric,
            "fixed_space_dimension": cls.fixed_space_dimension,
        }

    _stage(report, "symmetry", symmetry_summary)

    def stability_summary():
        sr = metric_verdicts(fan, k_max)
        return {
            "delta": rat(sr.delta),
            "delta_k": {str(k): rat(d) for k, d in sr.delta_k},
            "alpha_full": rat(dict(sr.alpha)["full"]),
            "ke_exists": sr.ke_exists,
            "reductive": sr.reductive,
            "balanced_k": {str(k): b for k, b in sr.balanced_k},
        }

    _stage(report, "stability", stability_summary)

    def demazure_summary():
        rep = demazure_report(fan)
        return {
            "is_reductive": rep.is_reductive,
            "unipotent_dim": rep.unipotent_dim,
            "gs_factor_sizes": list(rep.gs_factor_sizes),
            "graded_dims": [
                {"class": _class_label(alpha), "dim": d} for alpha, d in rep.graded_dims
            ],
            "dim_aut0": rep.dim_aut0,
            "weyl_order": rep.weyl_order,
            "component_group_order": rep.component_group_order,
            "class_group": {
                "free_rank": rep.class_group.free_rank,
                "torsion": list(rep.class_group.torsion),
                "degrees": [_class_label(d) for d in rep.class_group.degree_of],
            },
        }

    _stage(report, "demazure", demazure_summary, enabled=not skip_demazure)

    def chain_summary():
        cr = verify_implication_chain(fan, k_budget=k_max)
        return {
            "nodes": {name: val for name, val in cr.nodes},
            "consistent": cr.consistent,
            "violations": [list(v) for v in cr.violations],
        }

    _stage(report, "chain", chain_summary)
    return report


def _class_label(label):
    free, torsion = label
    return {"free": list(free), "torsion": list(torsion)}


def to_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def from_json(text):
    return json.loads(text)
