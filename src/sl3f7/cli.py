"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain precondition violated, 4 semantic input error.  Errors and
warnings go to stderr only; stdout stays machine-clean.

Each subcommand but verify builds one sl3f7/v1 document and prints nothing;
main() hands it to _emit(), which dumps it as JSON or renders it as a table
or csv from the document alone.
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
from .scan import WrongOrder
from .schema import document
from .simconj import EmptyAfterScalarStrip, NotCommuting
from .subgroups import InParabolic

_PRECONDITION_ERRORS = (
    NotInSL3, HasEigenvector, NotEigenfree, SingularMatrix, WrongOrder,
    InParabolic, ZeroInverse, ZeroElement,
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


def _add_command(sub, name: str, fn, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.set_defaults(fn=fn)
    return p


def _add_format(p: argparse.ArgumentParser, choices=("table", "csv", "json")) -> None:
    p.add_argument("--format", choices=choices, default="table")


def _threads(text: str) -> int:
    """--threads is accepted and ignored, as every path runs in the calling
    thread; a value below 1 is still a usage error (exit 2), like a bad --format."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return n


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_threads, default=None,
                   help="scan partitions to run in parallel (default $SL3F7_THREADS or 1)")


def _label_json(label: ClassLabel | None) -> list[int] | None:
    return None if label is None else [label.i, label.j]


# ---------------------------------------------------------------------------
# subcommands: each returns its sl3f7/v1 document and prints nothing


def cmd_classify(args: argparse.Namespace) -> dict:
    m = _read_matrix(args)
    poly, d = char_poly(m)
    if d != 1:
        raise NotInSL3(f"det = {d}, expected 1")
    eigenfree = not has_fp_eigenvalue(m)
    label = classify.class_label(m) if eigenfree else None
    psl = classify.psl_label(label) if label else None
    return document("classify", matrix=format_matrix(m), det=d, trace=poly.i,
                    char_poly={"i": poly.i, "j": poly.j}, eigenfree=eigenfree,
                    label=_label_json(label), order=mat_order(m), psl_label=_label_json(psl))


def cmd_power_table(args: argparse.Namespace) -> dict:
    return document("power_table", rows=[
        {"k": r.k, "matrix": format_matrix(r.matrix, signed=args.signed), "trace": r.trace,
         "class": _label_text(r.pair), "eigenfree": r.label is not None, "note": r.note}
        for r in scan.power_table(_read_matrix(args), args.limit)
    ])


def cmd_census(args: argparse.Namespace) -> dict:
    return scan.census().to_json()


def cmd_centralizer(args: argparse.Namespace) -> dict:
    c = scan.centralizer(_read_matrix(args))
    return document("centralizer", subject=format_matrix(c.subject), size=c.size,
                    is_cyclic=c.is_cyclic, generator=c.generator and format_matrix(c.generator),
                    elements=None if c.elements is None else list(c.elements))


def cmd_class_size(args: argparse.Namespace) -> dict:
    m = _read_matrix(args)
    size = scan.class_size(m)
    return document("class_size", subject=format_matrix(m),
                    centralizer_size=GROUP_ORDER // size, class_size=size)


def cmd_sylow(args: argparse.Namespace) -> dict:
    # n19 = |G| / |N(P)|; Sylow 19-subgroups meet trivially, 18 order-19 elements each
    p = classify.KNOWN_REPRESENTATIVES[ClassLabel(0, 2)]
    elements = 18 * (GROUP_ORDER // scan.normalizer_of_cyclic(p))
    return document("sylow", count=scan.sylow19_count(elements), order19_elements=elements)


def cmd_normalizer(args: argparse.Namespace) -> dict:
    m = _read_matrix(args)
    size = scan.normalizer_of_cyclic(m)
    return document("normalizer", subject=format_matrix(m), size=size,
                    index_over_subgroup=size // 19)


def cmd_parabolic(args: argparse.Namespace) -> dict:
    size = subgroups.parabolic_size()
    return document("parabolic", size=size, index=GROUP_ORDER // size)


def cmd_closure(args: argparse.Namespace) -> dict:
    if args.matrices:
        gens = tuple(parse_matrix(t) for t in args.matrices)
    else:
        gens = (subgroups.X, subgroups.Y, subgroups.Z)
    size = subgroups.generator_closure(gens)
    return document("closure", generators=[format_matrix(g) for g in gens], size=size)


def cmd_reduce(args: argparse.Namespace) -> dict:
    trace = subgroups.reduce_to_generator(_read_matrix(args), args.target)
    steps = [{"side": s.side, "factor": format_matrix(s.factor)} for s in trace.steps]
    return document("reduction", start=format_matrix(trace.start),
                    target=format_matrix(trace.target), steps=steps, verified=trace.verify())


def cmd_commuting_reps(args: argparse.Namespace) -> dict:
    reps = simconj.eighteen_commuting_reps()
    return document("commuting_reps", reps=[
        {"label": _label_json(l), "matrix": format_matrix(m)} for l, m in sorted(reps.items())
    ])


def cmd_labels(args: argparse.Namespace) -> dict:
    return document("labels", labels=[
        {"i": l.i, "j": l.j, "order": classify.order_of_label(l),
         "psl": _label_json(classify.psl_label(l)),
         "representative": format_matrix(classify.representative(l))}
        for l in classify.eigenfree_labels()
    ])


def cmd_simconj(args: argparse.Namespace) -> dict:
    tuples = []
    for name in (args.file1, args.file2):
        with open(name) as fh:
            tuples.append(simconj.parse_tuple_file(fh.read()))
    a1, a2 = map(simconj.analyze_tuple, tuples)
    for analyzed, name in ((a1, args.file1), (a2, args.file2)):
        if isinstance(analyzed, simconj.AllEigen):
            raise NotEigenfree(
                f"{name}: every member has an eigenvector; the decision "
                "procedure covers eigenvector-free tuples"
            )
    verdict = simconj.decide_simconj(a1, a2)
    return document("simconj", equivalent=verdict.equivalent,
                    witness=verdict.witness and format_matrix(verdict.witness),
                    certificate=verdict.certificate)


def cmd_verify(args: argparse.Namespace) -> int:
    ok = verify.run_suite(args.suite, only=args.only)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# table and csv: one renderer per document kind prints it from the document,
# reading args only for choices the document does not record


def _label_text(pair) -> str:
    return "-" if pair is None else f"[{pair[0]},{pair[1]}]"


def _pairs(width: int, *pairs) -> None:
    """One line per (title, value): the title and a colon, padded to width."""
    for title, value in pairs:
        print(f"{title + ':':<{width}}{value}")


def _fields(width: int, *titles_and_fields):
    """The renderer of a table of one document field per line."""
    return lambda doc, args: _pairs(width, *((t, doc[f]) for t, f in titles_and_fields))


def _csv(header: str, rows) -> None:
    print(header)
    for row in rows:
        print(",".join(map(str, row)))


def _render_classify(doc: dict, args) -> None:
    poly = doc["char_poly"]
    _pairs(
        12,
        ("matrix", doc["matrix"]),
        ("det", doc["det"]),
        ("trace", doc["trace"]),
        ("char poly", f"t^3 - {poly['i']}t^2 + {poly['j']}t - 1"),
        ("eigenfree", "yes" if doc["eigenfree"] else "no"),
        ("label", _label_text(doc["label"])),
        ("order", doc["order"]),
        ("psl label", _label_text(doc["psl_label"])),
    )


def _render_power_table(doc: dict, args) -> None:
    if args.format == "csv":
        _csv("k,matrix,trace,label",
             ((r["k"], r["matrix"], r["trace"], r["class"]) for r in doc["rows"]))
        return
    print(f"{'k':>3s}  {'matrix':<24s} {'trace':>5s}  class")
    for r in doc["rows"]:
        note = f"  ({r['note']})" if r["note"] else ""
        print(f"{r['k']:>3d}  {r['matrix']:<24s} {r['trace']:>5d}  {r['class']}{note}")


def _render_census(doc: dict, args) -> None:
    by_trace = doc["by_trace"].items()
    by_label = [(c["i"], c["j"], c["count"]) for c in doc["by_label"]]
    if args.format == "csv":
        if args.by == "trace":
            _csv("trace,count", by_trace)
        else:
            _csv("i,j,count", by_label)
        return
    _pairs(18, ("group order", doc["group_order"]), ("eigenfree total", doc["eigenfree_total"]))
    print("by trace:")
    for t, n in by_trace:
        print(f"  {t}: {n}")
    print("by label:")
    for i, j, n in by_label:
        print(f"  [{i},{j}]: {n}")


def _render_centralizer(doc: dict, args) -> None:
    _pairs(12, ("subject", doc["subject"]), ("size", doc["size"]),
           ("cyclic", "yes" if doc["is_cyclic"] else "no"), ("generator", doc["generator"] or "-"))
    codes = doc["elements"]
    if codes is not None:
        _pairs(12, ("elements", f"{len(codes)} codes (min {codes[0]}, max {codes[-1]})"))


def _render_closure(doc: dict, args) -> None:
    _pairs(14, ("generators", len(doc["generators"])), ("closure size", doc["size"]))
    if doc["size"] == GROUP_ORDER:
        print("generates the whole group")


def _render_reduction(doc: dict, args) -> None:
    name = args.target.upper()
    print(f"start:  {doc['start']}")
    print(f"target: {doc['target']} (= {name})")
    for k, step in enumerate(doc["steps"], 1):
        print(f"  step {k}: {step['side']:<5s} {step['factor']}")
    sides = [step["side"] for step in doc["steps"]]
    factors = ([f"L{k}" for k in range(sides.count("left"), 0, -1)] + ["A"]
               + [f"R{k}" for k in range(1, sides.count("right") + 1)])
    print(f"product: {name} = {' . '.join(factors)}")
    print(f"verified: {doc['verified']}")


def _render_commuting_reps(doc: dict, args) -> None:
    for rep in doc["reps"]:
        print(f"{_label_text(rep['label'])}: {rep['matrix']}")


def _render_labels(doc: dict, args) -> None:
    rows = [(l["i"], l["j"], l["order"], *l["psl"], l["representative"]) for l in doc["labels"]]
    if args.format == "csv":
        _csv("i,j,order,psl_i,psl_j,representative", rows)
        return
    for i, j, order, psl_i, psl_j, rep in rows:
        print(f"[{i},{j}]  order {order:>2d}  psl [{psl_i},{psl_j}]  rep {rep}")


_RENDERERS = {
    "classify": _render_classify,
    "power_table": _render_power_table,
    "census": _render_census,
    "centralizer": _render_centralizer,
    "class_size": _fields(18, ("centralizer size", "centralizer_size"),
                          ("class size", "class_size")),
    "sylow": _fields(21, ("order-19 elements", "order19_elements"),
                     ("Sylow 19-subgroups", "count")),
    "normalizer": _fields(18, ("normalizer size", "size"),
                          ("index over <P>", "index_over_subgroup")),
    "parabolic": _fields(16, ("subgroup size", "size"), ("index", "index")),
    "closure": _render_closure,
    "reduction": _render_reduction,
    "commuting_reps": _render_commuting_reps,
    "labels": _render_labels,
}


def _emit(doc: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _RENDERERS[doc["kind"]](doc, args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl3f7",
        description="Classification toolkit for eigenvector-free matrices in SL3(F7)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "classify", cmd_classify, "label, order and PSL class of a matrix")
    _add_matrix_arg(p)
    _add_format(p, choices=("table", "json"))

    p = _add_command(sub, "power-table", cmd_power_table, "table of powers with traces and classes")
    _add_matrix_arg(p)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--signed", action="store_true", help="print entries in -3..3")
    _add_format(p)

    p = _add_command(sub, "census", cmd_census, "full-group eigenfree census")
    p.add_argument("--by", choices=("label", "trace"), default="label")
    _add_format(p)
    _add_threads(p)

    p = _add_command(sub, "centralizer", cmd_centralizer, "full-scan centralizer of a matrix")
    _add_matrix_arg(p)
    _add_format(p, choices=("table", "json"))
    _add_threads(p)

    p = _add_command(sub, "class-size", cmd_class_size, "conjugacy class size by orbit-stabilizer")
    _add_matrix_arg(p)
    _add_format(p, choices=("table", "json"))
    _add_threads(p)

    p = _add_command(sub, "sylow", cmd_sylow, "count the Sylow 19-subgroups")
    _add_format(p, choices=("table", "json"))
    _add_threads(p)

    p = _add_command(sub, "normalizer", cmd_normalizer, "normalizer size of <P> for an order-19 P")
    _add_matrix_arg(p)
    _add_format(p, choices=("table", "json"))
    _add_threads(p)

    p = _add_command(sub, "parabolic", cmd_parabolic, "size of the block-upper-triangular subgroup")
    _add_format(p, choices=("table", "json"))

    p = _add_command(sub, "closure", cmd_closure, "BFS closure size of a generator set")
    p.add_argument("matrices", nargs="*", help="generators (default: X Y Z)")
    _add_format(p, choices=("table", "json"))

    p = _add_command(sub, "reduce", cmd_reduce, "eliminate a matrix outside H to Y or Z")
    _add_matrix_arg(p)
    p.add_argument("--target", choices=("Y", "Z", "y", "z"), required=True)
    _add_format(p, choices=("table", "json"))

    p = _add_command(sub, "commuting-reps", cmd_commuting_reps,
                     "18 commuting class representatives")
    _add_format(p, choices=("table", "json"))

    p = _add_command(sub, "labels", cmd_labels, "the 18 eigenvector-free labels")
    _add_format(p)

    p = _add_command(sub, "simconj", cmd_simconj, "decide simultaneous conjugacy of two tuples")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(format="json")

    p = _add_command(sub, "verify", cmd_verify, "run the verification suite")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--only", default=None, help="run only checks whose name contains this")
    _add_threads(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return args.fn(args)
        _emit(args.fn(args), args)
        return 0
    except _SEMANTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MatrixFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
