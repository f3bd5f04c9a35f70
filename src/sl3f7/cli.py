"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain precondition violated, 4 semantic input error.  Errors and
warnings go to stderr only; stdout stays machine-clean.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify, scan, simconj, subgroups, verify
from .classify import ClassLabel, HasEigenvector, NotEigenfree, NotInSL3
from .field import ZeroElement, ZeroInverse
from .matrix3 import (
    GROUP_ORDER,
    Mat3,
    MatrixFormatError,
    SingularMatrix,
    char_poly,
    format_matrix,
    has_fp_eigenvalue,
    mat_order,
    parse_matrix,
)
from .scan import UnsupportedOrder, WrongOrder
from .schema import document
from .simconj import EmptyAfterScalarStrip, LengthMismatch, NotCommuting
from .subgroups import InParabolic

_PRECONDITION_ERRORS = (
    NotInSL3, HasEigenvector, NotEigenfree, SingularMatrix, WrongOrder,
    UnsupportedOrder, InParabolic, ZeroInverse, ZeroElement,
)
_SEMANTIC_ERRORS = (NotCommuting, EmptyAfterScalarStrip)


def _add_matrix_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrix", nargs="?", help="matrix text 'a b c; d e f; g h i'")
    p.add_argument("--file", help="read the matrix from a file instead")


def _read_matrix(args: argparse.Namespace) -> Mat3:
    if args.file:
        with open(args.file) as fh:
            return parse_matrix(fh.read())
    if not args.matrix:
        raise MatrixFormatError("no matrix given (inline argument or --file)")
    return parse_matrix(args.matrix)


def _add_format(p: argparse.ArgumentParser, choices=("table", "csv", "json")) -> None:
    p.add_argument("--format", choices=choices, default="table")


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None,
                   help="scan partitions to run in parallel (default $SL3F7_THREADS or 1)")


def _emit_json(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _label_json(label: ClassLabel | None) -> list[int] | None:
    return None if label is None else [label.i, label.j]


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args: argparse.Namespace) -> int:
    m = _read_matrix(args)
    poly, d = char_poly(m)
    if d != 1:
        raise NotInSL3(f"det = {d}, expected 1")
    eigenfree = not has_fp_eigenvalue(m)
    order = mat_order(m)
    label = classify.class_label(m) if eigenfree else None
    psl = classify.psl_label(label) if label else None
    if args.format == "json":
        _emit_json(document(
            "classify",
            matrix=format_matrix(m),
            det=d,
            trace=poly.i,
            char_poly={"i": poly.i, "j": poly.j},
            eigenfree=eigenfree,
            label=_label_json(label),
            order=order,
            psl_label=_label_json(psl),
        ))
    else:
        print(f"matrix:     {format_matrix(m)}")
        print(f"det:        {d}")
        print(f"trace:      {poly.i}")
        print(f"char poly:  t^3 - {poly.i}t^2 + {poly.j}t - 1")
        print(f"eigenfree:  {'yes' if eigenfree else 'no'}")
        print(f"label:      {label if label else '-'}")
        print(f"order:      {order}")
        print(f"psl label:  {psl if psl else '-'}")
    return 0


def cmd_power_table(args: argparse.Namespace) -> int:
    m = _read_matrix(args)
    rows = scan.power_table(m, args.limit)
    if args.format == "json":
        _emit_json(scan.power_table_json(rows, signed=args.signed))
    elif args.format == "csv":
        sys.stdout.write(scan.power_table_csv(rows, signed=args.signed))
    else:
        print(f"{'k':>3s}  {'matrix':<24s} {'trace':>5s}  class")
        for r in rows:
            note = f"  ({r.note})" if r.note else ""
            print(f"{r.k:>3d}  {format_matrix(r.matrix, signed=args.signed):<24s} "
                  f"{r.trace:>5d}  {r.display_class()}{note}")
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    summary = scan.census(threads=args.threads)
    if args.format == "json":
        _emit_json(summary.to_json())
    elif args.format == "csv":
        sys.stdout.write(summary.to_csv(by=args.by))
    else:
        print(f"group order:      {summary.group_order}")
        print(f"eigenfree total:  {summary.eigenfree_total}")
        print("by trace:")
        for t, n in sorted(summary.by_trace.items()):
            print(f"  {t}: {n}")
        print("by label:")
        for label, n in sorted(summary.by_label.items()):
            print(f"  {label}: {n}")
    return 0


def cmd_centralizer(args: argparse.Namespace) -> int:
    m = _read_matrix(args)
    report = scan.centralizer(m)
    if args.format == "json":
        _emit_json(report.to_json())
    else:
        print(f"subject:    {format_matrix(report.subject)}")
        print(f"size:       {report.size}")
        print(f"cyclic:     {'yes' if report.is_cyclic else 'no'}")
        gen = format_matrix(report.generator) if report.generator else "-"
        print(f"generator:  {gen}")
        if report.elements is not None:
            print(f"elements:   {len(report.elements)} codes "
                  f"(min {report.elements[0]}, max {report.elements[-1]})")
    return 0


def cmd_class_size(args: argparse.Namespace) -> int:
    m = _read_matrix(args)
    size = scan.class_size(m)
    centralizer_size = GROUP_ORDER // size
    if args.format == "json":
        _emit_json(document("class_size", subject=format_matrix(m),
                            centralizer_size=centralizer_size, class_size=size))
    else:
        print(f"centralizer size: {centralizer_size}")
        print(f"class size:       {size}")
    return 0


def cmd_sylow(args: argparse.Namespace) -> int:
    elements = scan.count_order19_elements(threads=args.threads)
    n19 = scan.sylow19_count(elements)
    if args.format == "json":
        _emit_json(document("sylow", count=n19, order19_elements=elements))
    else:
        print(f"order-19 elements:   {elements}")
        print(f"Sylow 19-subgroups:  {n19}")
    return 0


def cmd_normalizer(args: argparse.Namespace) -> int:
    m = _read_matrix(args)
    size = scan.normalizer_of_cyclic(m)
    if args.format == "json":
        _emit_json(document("normalizer", subject=format_matrix(m), size=size,
                            index_over_subgroup=size // 19))
    else:
        print(f"normalizer size:  {size}")
        print(f"index over <P>:   {size // 19}")
    return 0


def cmd_parabolic(args: argparse.Namespace) -> int:
    size = subgroups.parabolic_size()
    if args.format == "json":
        _emit_json(document("parabolic", size=size, index=GROUP_ORDER // size))
    else:
        print(f"subgroup size:  {size}")
        print(f"index:          {GROUP_ORDER // size}")
    return 0


def cmd_closure(args: argparse.Namespace) -> int:
    if args.matrices:
        gens = tuple(parse_matrix(t) for t in args.matrices)
    else:
        gens = (subgroups.X, subgroups.Y, subgroups.Z)
    size = subgroups.generator_closure(gens)
    if args.format == "json":
        _emit_json(document("closure", generators=[format_matrix(g) for g in gens], size=size))
    else:
        print(f"generators:   {len(gens)}")
        print(f"closure size: {size}")
        if size == GROUP_ORDER:
            print("generates the whole group")
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    m = _read_matrix(args)
    trace_obj = subgroups.reduce_to_generator(m, args.target)
    if args.format == "json":
        _emit_json(trace_obj.to_json())
    else:
        lefts = [s.factor for s in trace_obj.steps if s.side == "left"]
        rights = [s.factor for s in trace_obj.steps if s.side == "right"]
        print(f"start:  {format_matrix(trace_obj.start)}")
        print(f"target: {format_matrix(trace_obj.target)} (= {args.target.upper()})")
        for idx, step in enumerate(trace_obj.steps, 1):
            print(f"  step {idx}: {step.side:<5s} {format_matrix(step.factor)}")
        formula = (
            " . ".join(f"L{k}" for k in range(len(lefts), 0, -1))
            + (" . " if lefts else "")
            + "A"
            + ("" if not rights else " . " + " . ".join(f"R{k}" for k in range(1, len(rights) + 1)))
        )
        print(f"product: {args.target.upper()} = {formula}")
        print(f"verified: {trace_obj.verify()}")
    return 0


def cmd_commuting_reps(args: argparse.Namespace) -> int:
    reps = simconj.eighteen_commuting_reps()
    if args.format == "json":
        _emit_json(document("commuting_reps", reps=[
            {"label": [l.i, l.j], "matrix": format_matrix(m)} for l, m in sorted(reps.items())
        ]))
    else:
        for label, m in sorted(reps.items()):
            print(f"{label}: {format_matrix(m)}")
    return 0


def cmd_labels(args: argparse.Namespace) -> int:
    labels = classify.eigenfree_labels()
    order, rep, psl = classify.order_of_label, classify.representative, classify.psl_label
    if args.format == "json":
        _emit_json(document("labels", labels=[
            {
                "i": l.i,
                "j": l.j,
                "order": order(l),
                "psl": _label_json(psl(l)),
                "representative": format_matrix(rep(l)),
            }
            for l in labels
        ]))
    elif args.format == "csv":
        print("i,j,order,psl_i,psl_j,representative")
        for l in labels:
            print(f"{l.i},{l.j},{order(l)},{psl(l).i},{psl(l).j},{format_matrix(rep(l))}")
    else:
        for l in labels:
            print(f"{l}  order {order(l):>2d}  psl {psl(l)}  rep {format_matrix(rep(l))}")
    return 0


def cmd_simconj(args: argparse.Namespace) -> int:
    with open(args.file1) as fh:
        t1 = simconj.parse_tuple_file(fh.read())
    with open(args.file2) as fh:
        t2 = simconj.parse_tuple_file(fh.read())
    a1 = simconj.analyze_tuple(t1)
    a2 = simconj.analyze_tuple(t2)
    for analyzed, name in ((a1, args.file1), (a2, args.file2)):
        if isinstance(analyzed, simconj.AllEigen):
            raise NotEigenfree(
                f"{name}: every member has an eigenvector; the decision "
                "procedure covers eigenvector-free tuples"
            )
        if isinstance(analyzed, simconj.Rejected):
            raise NotCommuting(f"{name}: {analyzed.reason}")
    verdict = simconj.decide_simconj(a1, a2)
    _emit_json(verdict.to_json())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    ok = verify.run_suite(args.suite, threads=args.threads, only=args.only)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl3f7",
        description="Classification toolkit for eigenvector-free matrices in SL3(F7)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="label, order and PSL class of a matrix")
    _add_matrix_arg(p)
    _add_format(p, choices=("table", "json"))
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("power-table", help="table of powers with traces and classes")
    _add_matrix_arg(p)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--signed", action="store_true", help="print entries in -3..3")
    _add_format(p)
    p.set_defaults(fn=cmd_power_table)

    p = sub.add_parser("census", help="full-group eigenfree census")
    p.add_argument("--by", choices=("label", "trace"), default="label")
    _add_format(p)
    _add_threads(p)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("centralizer", help="full-scan centralizer of a matrix")
    _add_matrix_arg(p)
    _add_format(p, choices=("table", "json"))
    _add_threads(p)
    p.set_defaults(fn=cmd_centralizer)

    p = sub.add_parser("class-size", help="conjugacy class size by orbit-stabilizer")
    _add_matrix_arg(p)
    _add_format(p, choices=("table", "json"))
    _add_threads(p)
    p.set_defaults(fn=cmd_class_size)

    p = sub.add_parser("sylow", help="count the Sylow 19-subgroups")
    _add_format(p, choices=("table", "json"))
    _add_threads(p)
    p.set_defaults(fn=cmd_sylow)

    p = sub.add_parser("normalizer", help="normalizer size of <P> for an order-19 P")
    _add_matrix_arg(p)
    _add_format(p, choices=("table", "json"))
    _add_threads(p)
    p.set_defaults(fn=cmd_normalizer)

    p = sub.add_parser("parabolic", help="size of the block-upper-triangular subgroup")
    _add_format(p, choices=("table", "json"))
    p.set_defaults(fn=cmd_parabolic)

    p = sub.add_parser("closure", help="BFS closure size of a generator set")
    p.add_argument("matrices", nargs="*", help="generators (default: X Y Z)")
    _add_format(p, choices=("table", "json"))
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("reduce", help="eliminate a matrix outside H to Y or Z")
    _add_matrix_arg(p)
    p.add_argument("--target", choices=("Y", "Z", "y", "z"), required=True)
    _add_format(p, choices=("table", "json"))
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("commuting-reps", help="18 commuting class representatives")
    _add_format(p, choices=("table", "json"))
    p.set_defaults(fn=cmd_commuting_reps)

    p = sub.add_parser("labels", help="the 18 eigenvector-free labels")
    _add_format(p)
    p.set_defaults(fn=cmd_labels)

    p = sub.add_parser("simconj", help="decide simultaneous conjugacy of two tuples")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=cmd_simconj)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--only", default=None, help="run only checks whose name contains this")
    _add_threads(p)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _SEMANTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LengthMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MatrixFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
