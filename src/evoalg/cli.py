"""Command-line interface.

Subcommands: classify, cea verify, cea diagram, rbo verify, rbo search,
rbo systems.  Exit codes: 0 ok, 1 input error (usage errors included),
2 unclassifiable, 3 verification failure.  All stochastic behavior is a pure
function of the flags and --seed, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys

from .core import (
    COMPLEX,
    REAL,
    EvoalgError,
    check_tolerance,
    format_complex,
    read_matrix_file,
)
from .classify2d import AlgebraClass, UnclassifiableError, canonical_matrix, classify_with_witness
from . import cea as cea_mod
from . import rotabaxter as rbo_mod

OK, INPUT_ERROR, UNCLASSIFIABLE, VERIFY_FAIL = 0, 1, 2, 3


def _resolve(value, *fallbacks):
    for v in (value, *fallbacks):
        if v is not None:
            return v
    return None


def _tolerance(text: str) -> float:
    tol = float(text)
    try:
        check_tolerance(tol)  # float("1e400") is inf
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return tol


@functools.cache  # one build per process; parse_args leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="evoalg",
                                description="evolution-algebra toolkit")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for all sampling (default 0, or the config value)")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="classify, cea diagram: structural zero tolerance; cea verify, rbo "
                        "verify, rbo search: residual bound (default 1e-9, or the config value)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a 2x2 structure matrix")
    c.add_argument("matrix", help="matrix file (first line n, then rows of re+imi entries)")
    c.add_argument("--field", choices=(REAL, COMPLEX), default=COMPLEX)

    ce = sub.add_parser("cea", help="chain-family operations")
    ce_sub = ce.add_subparsers(dest="cea_command", required=True)
    cv = ce_sub.add_parser("verify", help="sampled Chapman-Kolmogorov check")
    cv.add_argument("config", help="JSON config file")
    cv.add_argument("--samples", type=int, default=None)
    dg = ce_sub.add_parser("diagram", help="rasterize the class diagram")
    dg.add_argument("config", help="JSON config file")
    dg.add_argument("--out", default=".", help="output directory for CSV and SVG")
    dg.add_argument("--property", default=None, help="class tag highlighted as the property")

    rb = sub.add_parser("rbo", help="Rota-Baxter operators")
    rb_sub = rb.add_subparsers(dest="rbo_command", required=True)
    rv = rb_sub.add_parser("verify", help="verify catalog families by sampling")
    rv.add_argument("--algebra", default="all", help="E1..E6 or all")
    rv.add_argument("--weight", choices=("0", "1", "all"), default="all")
    rv.add_argument("--samples", type=int, default=200)
    rv.add_argument("--out", default=None, help="write the report as CSV here")
    rs = rb_sub.add_parser("search", help="multi-start residual root search")
    rs.add_argument("--algebra", required=True, help="E0..E6 (canonical algebra)")
    rs.add_argument("--params", default="", help="algebra parameters, comma separated")
    rs.add_argument("--weight", type=int, choices=(0, 1), required=True)
    rs.add_argument("--starts", type=int, default=500)
    rs.add_argument("--out", default=None, help="write solutions as CSV here")
    ry = rb_sub.add_parser("systems", help="print the derived polynomial system")
    ry.add_argument("--algebra", required=True, help="E1..E6")
    ry.add_argument("--weight", type=int, choices=(0, 1), required=True)
    return p


def _parse_params(text: str):
    if not text.strip():
        return ()
    out = []
    for tok in text.split(","):
        tok = tok.strip().replace("i", "j")
        out.append(complex(tok))
    return tuple(out)


def _csv_text(header, rows) -> str:
    # family ids such as w1:E5(x,0):bneg hold commas, so fields are quoted where needed
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_classify(args) -> int:
    A = read_matrix_file(args.matrix, args.field)
    cls, witness = classify_with_witness(A, args.field, tol=_resolve(args.tol, 1e-9))
    print(f"class: {cls.label()}")
    if witness is not None:
        rows = [" ".join(format_complex(z) for z in row) for row in witness.entries]
        print("witness basis change (rows are images of e1, e2):")
        for r in rows:
            print(f"  {r}")
    return OK


def cmd_cea_verify(args) -> int:
    cfg = cea_mod.load_config(args.config)
    samples = args.samples if args.samples is not None else cfg["samples"]
    report = cea_mod.verify_ck(cfg["spec"], samples=samples,
                               seed=_resolve(args.seed, cfg["seed"]),
                               tol=_resolve(args.tol, cfg["tolerance"]),
                               t_max=cfg["t_max"])
    print(f"chapman-kolmogorov {cfg['spec'].family}: {report.summary()}")
    return OK if report.passed else VERIFY_FAIL


def cmd_cea_diagram(args) -> int:
    cfg = cea_mod.load_config(args.config)
    prop = args.property or cfg["property"]
    diagram = cea_mod.property_diagram(cfg["spec"], prop, cfg["window"],
                                       cfg["resolution"], tol=_resolve(args.tol, cfg["tolerance"]))
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "diagram.csv")
    svg_path = os.path.join(args.out, "diagram.svg")
    with open(csv_path, "w", encoding="ascii") as fh:
        fh.write(diagram.to_csv())
    with open(svg_path, "w", encoding="ascii") as fh:
        fh.write(diagram.to_svg())
    n_in = sum(1 for row in diagram.cells for tag in row if diagram.in_property(tag))
    print(f"diagram {cfg['spec'].family} property={prop}: "
          f"{n_in} cells in property; wrote {csv_path} and {svg_path}")
    return OK


def cmd_rbo_verify(args) -> int:
    weights = (0, 1) if args.weight == "all" else (int(args.weight),)
    algebras = rbo_mod.ALGEBRAS if args.algebra == "all" else (args.algebra,)
    reports = []
    for w in weights:
        for tag in algebras:
            for fam in rbo_mod.catalog(tag, w):
                reports.append(rbo_mod.verify_family(
                    fam, param_samples=args.samples, seed=_resolve(args.seed, 0),
                    tol=_resolve(args.tol, 1e-9)))
    for rep in reports:
        print(rep.summary())
    if args.out:
        text = _csv_text(["family_id", "samples", "worst_residual", "passed"],
                         [[rep.family_id, rep.samples, repr(rep.worst_residual),
                           "pass" if rep.passed else "fail"] for rep in reports])
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    n_bad = sum(1 for rep in reports if not rep.passed)
    print(f"{len(reports) - n_bad}/{len(reports)} families pass")
    return OK if n_bad == 0 else VERIFY_FAIL


def cmd_rbo_search(args) -> int:
    params = _parse_params(args.params)
    A = canonical_matrix(AlgebraClass(COMPLEX, args.algebra, params))
    points = rbo_mod.search(A, args.weight, starts=args.starts,
                            seed=_resolve(args.seed, 0), tol=_resolve(args.tol, 1e-9))
    text = _csv_text(["r11", "r12", "r21", "r22", "residual", "annotation"],
                     [[*(format_complex(z) for row in pt.matrix for z in row),
                       repr(pt.residual), pt.annotation] for pt in points])
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"{len(points)} solutions; wrote {args.out}")
    else:
        sys.stdout.write(text)
    return OK


def cmd_rbo_systems(args) -> int:
    sym = rbo_mod.symbolic_algebra(args.algebra)
    system = rbo_mod.derive_system(sym, args.weight)
    print(f"{args.algebra} weight {args.weight}: {len(system.equations)} equations "
          f"({len(system.tautologies)} tautologies dropped)")
    for eq in system.equations:
        print(f"  [{eq.pair[0]}{eq.pair[1]}|e{eq.coord}] {eq}")
    return OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which here means "unclassifiable"
        return OK if e.code == 0 else INPUT_ERROR
    if args.command == "classify":
        cmd = cmd_classify
    elif args.command == "cea":
        cmd = cmd_cea_verify if args.cea_command == "verify" else cmd_cea_diagram
    else:
        cmd = {"verify": cmd_rbo_verify, "search": cmd_rbo_search,
               "systems": cmd_rbo_systems}[args.rbo_command]
    try:
        return cmd(args)
    except UnclassifiableError as e:
        print(f"unclassifiable: {e}", file=sys.stderr)
        return UNCLASSIFIABLE
    except (OSError, EvoalgError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
