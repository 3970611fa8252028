"""Command-line surface.

Exit codes: 0 success, 2 parse or write error, 3 validation error, 4
invariant violation.
"""

import argparse
import sys

from . import report as rp
from .chain import verify_implication_chain
from .errors import InvariantViolation, ParseError, ToricSymError, ValidationError
from .families import generate_futaki
from .fan import polytope_from_fan
from .fileio import parse_fan_file, write_fan_file
from .latticecount import ehrhart_polynomial, quantized_barycenter
from .stability import alpha_invariant, delta_invariant, delta_k
from .symmetry import aut0_subgroup, polytope_automorphisms, roots
from .demazure import demazure_report


class WriteError(Exception):
    """An output file could not be written (exit code 2)."""


def cmd_analyze(args):
    fan = parse_fan_file(args.file)
    report = rp.analyze(
        fan,
        name=args.file,
        sha256=rp.file_sha256(args.file),
        k_max=args.k_max,
        skip_demazure=args.skip_demazure,
        skip_ehrhart=args.skip_ehrhart,
    )
    text = rp.to_json(report)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise WriteError(exc) from None
    sys.stdout.write(text)
    chain = report.get("chain", {})
    if isinstance(chain, dict) and chain.get("consistent") is False:
        raise InvariantViolation("implication chain violated")
    return 0


def cmd_bc(args):
    fan = parse_fan_file(args.file)
    p = polytope_from_fan(fan)
    bc = quantized_barycenter(p, args.k)
    print(" ".join(rp.rat(x) for x in bc))
    return 0


def cmd_ehrhart(args):
    fan = parse_fan_file(args.file)
    p = polytope_from_fan(fan)
    poly = ehrhart_polynomial(p)
    print(" ".join(rp.rat(c) for c in poly.coefficients))
    return 0


def cmd_roots(args):
    fan = parse_fan_file(args.file)
    rd = roots(fan)
    for m, i in rd.roots:
        kind = "semisimple" if (m, i) in rd.semisimple else "unipotent"
        print(" ".join(str(x) for x in m), f"ray={i}", kind)
    if not rd.roots:
        print("(no roots)")
    return 0


def cmd_aut(args):
    fan = parse_fan_file(args.file)
    p = polytope_from_fan(fan)
    group = polytope_automorphisms(p)
    aut0 = aut0_subgroup(p, root_data=roots(fan))
    print(f"aut_p_order {group.order}")
    print(f"aut0_p_order {aut0.order}")
    return 0


def cmd_alpha(args):
    print(rp.rat(alpha_invariant(parse_fan_file(args.file))))
    return 0


def cmd_delta(args):
    fan = parse_fan_file(args.file)
    if args.k is None:
        print(rp.rat(delta_invariant(fan)))
    else:
        print(rp.rat(delta_k(fan, args.k)))
    return 0


def cmd_demazure(args):
    fan = parse_fan_file(args.file)
    rep = demazure_report(fan)
    print(f"reductive {rep.is_reductive}")
    print(f"unipotent_dim {rep.unipotent_dim}")
    print(f"gs_factor_sizes {' '.join(str(s) for s in rep.gs_factor_sizes)}")
    print(f"dim_aut0 {rep.dim_aut0}")
    print(f"weyl_order {rep.weyl_order}")
    print(f"component_group_order {rep.component_group_order}")
    return 0


def cmd_verify_chain(args):
    failures = 0
    for path in sorted(args.files):
        fan = parse_fan_file(path)
        cr = verify_implication_chain(fan, k_budget=args.k_budget)
        status = "consistent" if cr.consistent else "VIOLATED"
        print(f"{path}: {status}")
        for name, val in cr.nodes:
            print(f"  {name}: {val}")
        if not cr.consistent:
            failures += 1
            for a, b in cr.violations:
                print(f"  violation: {a} does not imply {b}")
    if failures:
        raise InvariantViolation(f"{failures} file(s) violated the chain")
    return 0


def cmd_futaki(args):
    fan = generate_futaki(args.n1, args.n2)
    try:
        write_fan_file(args.out, fan, comment=f"blow-up family member n1={args.n1} n2={args.n2}")
    except OSError as exc:
        raise WriteError(exc) from None
    print(f"wrote {args.out} ({len(fan.rays)} rays, dimension {fan.dim})")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="toricsym",
        description="Exact symmetry and stability analysis of toric Fano varieties",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full pipeline report as JSON")
    p.add_argument("file")
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--json", metavar="OUT", help="also write the report to OUT")
    p.add_argument("--skip-demazure", action="store_true")
    p.add_argument("--skip-ehrhart", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("bc", help="quantized barycenter at a given k")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_bc)

    p = sub.add_parser("ehrhart", help="counting polynomial coefficients")
    p.add_argument("file")
    p.set_defaults(fn=cmd_ehrhart)

    p = sub.add_parser("roots", help="list roots with their paired rays")
    p.add_argument("file")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("aut", help="automorphism group orders")
    p.add_argument("file")
    p.set_defaults(fn=cmd_aut)

    p = sub.add_parser("alpha", help="alpha invariant of Aut P")
    p.add_argument("file")
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("delta", help="delta invariant (or delta_k with --k)")
    p.add_argument("file")
    p.add_argument("--k", type=int)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("demazure", help="automorphism group structure data")
    p.add_argument("file")
    p.set_defaults(fn=cmd_demazure)

    p = sub.add_parser("verify-chain", help="check the implication chain on files")
    p.add_argument("files", nargs="+")
    p.add_argument("--k-budget", type=int, default=None)
    p.set_defaults(fn=cmd_verify_chain)

    p = sub.add_parser("futaki", help="emit a blow-up family fan file")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_futaki)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except WriteError as exc:
        print(f"write error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ToricSymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
