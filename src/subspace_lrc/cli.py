"""Command line front end: construct, analyze, verify, repair.

Exit codes: 0 success, 1 a verification check failed, 2 bad usage or
parameters, 3 input data inconsistent with any codeword. Output is
deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys

from .arraycode import (
    analyze_code,
    construction_all_subspaces,
    construction_from_blocks,
    construction_spread,
    construction_std,
    format_bundle,
    read_bundle,
    write_bundle,
)
from .errors import BadParams, Inconsistent, NoRecovery, OutOfRange, SubspaceCodeError, TooLarge
from .gf import parse_field
from .limits import DEFAULT_PACKING_CAP
from .linalg import parse_matrix, row_space
from .locality import locality_profile, repair
from .verification import run_verification

EPILOG = """\
determinism:
  Ties everywhere are broken lexicographically: subspaces are kept in
  reduced row echelon form and enumerated in ascending basis order, and
  the first recovery set in (size, index) order wins. Identical
  invocations therefore produce identical bytes.

limits:
  Exhaustive scans refuse to enumerate more than a configured number of
  objects (default 2^20) and report the affected entries as skipped.
  Raise or lower the cap with --limit; nothing else sets it. --packing-cap
  bounds the exact disjoint-set search; a larger pool of overlapping sets
  gets a greedy bound, which verify skips instead.

exit codes:
  0 success, 1 verification failure, 2 usage or parameter error,
  3 data inconsistent with the code.
"""

def _read_blocks(field, path: str | None):
    """Blocks file: matrix blocks separated by blank lines, one per subspace."""
    if not path:
        raise BadParams("from-blocks requires --blocks FILE")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    chunks = [c for c in re.split(r"\n\s*\n", text) if c.strip()]
    if not chunks:
        raise BadParams(f"no matrix blocks found in {path}")
    blocks = []
    for k, chunk in enumerate(chunks, 1):
        with _prefixed(f"block {k} of {len(chunks)}: "):
            blocks.append(row_space(parse_matrix(chunk, field)))
    return blocks


def _count(low: int):
    """argparse type: an integer of at least low."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _require_params(args):
    need = () if args.construction == "from-blocks" else ("M", "b")
    missing = [name for name in need if getattr(args, name) is None]
    if missing:
        raise BadParams(
            f"{args.construction} requires {', '.join('-' + m for m in missing)}"
        )


def _build(args):
    field = parse_field(args.field)
    _require_params(args)
    if args.construction == "all-subspaces":
        return construction_all_subspaces(field, args.M, args.b, limit=args.limit)
    if args.construction == "spread":
        return construction_spread(field, args.M, args.b, args.method)
    if args.construction == "std-par":
        return construction_std(field, args.t, args.b, args.M, "par", args.class_index)
    if args.construction == "std-full":
        return construction_std(field, args.t, args.b, args.M, "full")
    if args.construction == "from-blocks":
        return construction_from_blocks(field, _read_blocks(field, args.blocks))
    raise BadParams(f"unknown construction {args.construction!r}")


def _cmd_construct(args) -> int:
    code = _build(args)
    summary = f"[{code.b}x{code.n}, {code.M}] over {code.field.descriptor()} ({code.provenance})"
    if args.output == "-":
        sys.stdout.write(format_bundle(code))
        print(summary, file=sys.stderr)
    elif args.output:
        write_bundle(code, args.output)
        print(summary)
        print(f"wrote {args.output}")
    else:
        print(summary)
    return 0


def _witness_json(rset):
    return {
        "columns": [c + 1 for c in rset.columns],
        "size": rset.size,
    }


def _availability_json(res):
    if res is None:
        return {"status": "skipped", "reason": "pass --availability to compute"}
    return {
        "value": res.value,
        "quality": "exact" if res.exact else "bound",
        "sets": [sorted(c + 1 for c in s) for s in res.sets],
    }


def _locality_json(code, *, with_availability, exact_cap, limit):
    try:
        profile = locality_profile(
            code,
            with_availability=with_availability,
            exact_cap=exact_cap,
            limit=limit,
        )
    except (TooLarge, NoRecovery) as exc:
        return {"status": "skipped", "reason": str(exc)}
    return {
        "node_locality": profile.node_locality,
        "symbol_locality": profile.symbol_locality,
        "node_witnesses": [_witness_json(w) for w in profile.node_witnesses],
        "symbol_witnesses": [
            [_witness_json(w) for w in row] for row in profile.symbol_witnesses
        ],
        "node_availability": _availability_json(profile.node_t),
        "symbol_availability": _availability_json(profile.symbol_t),
    }


def _emit(args, text: str) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)


def _report_csv(doc: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["key", "value"])
    rep = doc["report"]
    for k in sorted(rep["parameters"]):
        w.writerow([f"parameters.{k}", rep["parameters"][k]])
    for k in (
        "full_column_rank",
        "distance",
        "mds",
        "perfect",
        "phi1",
        "ratio_num",
        "ratio_den",
    ):
        w.writerow([k, rep[k]])
    wd = rep["weight_distribution"]
    if wd:
        for weight in sorted(wd, key=int):
            w.writerow([f"weight.{weight}", wd[weight]])
    for note in rep["notes"]:
        w.writerow(["note", note])
    loc = doc["locality"]
    if loc is not None and "node_locality" in loc:
        w.writerow(["node_locality", loc["node_locality"]])
        w.writerow(["symbol_locality", loc["symbol_locality"]])
        for key in ("node_availability", "symbol_availability"):
            entry = loc[key]
            if "value" in entry:
                w.writerow([key, entry["value"]])
                w.writerow([f"{key}.quality", entry["quality"]])
            else:
                w.writerow([key, "skipped"])
    elif loc is not None:
        w.writerow(["locality", "skipped"])
    return buf.getvalue()


def _report_text(doc: dict) -> str:
    rep = doc["report"]
    p = rep["parameters"]
    lines = [
        f"[{p['b']}x{p['n']}, {p['M']}] over gf({p['q']})",
        f"provenance: {p['provenance']}",
        f"full column rank: {rep['full_column_rank']}",
        f"distance: {rep['distance'] if rep['distance'] is not None else 'skipped'}",
        f"mds: {rep['mds']}",
        f"perfect: {rep['perfect']} (ball {rep['phi1']}, ratio {rep['ratio_num']}/{rep['ratio_den']})",
    ]
    wd = rep["weight_distribution"]
    if wd:
        dist = ", ".join(f"{k}:{wd[k]}" for k in sorted(wd, key=int))
        lines.append(f"weights: {dist}")
    for note in rep["notes"]:
        lines.append(f"note: {note}")
    loc = doc["locality"]
    if loc is not None and "node_locality" in loc:
        lines.append(f"node locality: {loc['node_locality']}")
        lines.append(f"symbol locality: {loc['symbol_locality']}")
        for key, label in (
            ("node_availability", "node availability"),
            ("symbol_availability", "symbol availability"),
        ):
            entry = loc[key]
            if "value" in entry:
                lines.append(f"{label}: {entry['value']} ({entry['quality']})")
            else:
                lines.append(f"{label}: skipped ({entry['reason']})")
    elif loc is not None:
        lines.append(f"locality: skipped ({loc['reason']})")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    code = read_bundle(args.bundle)
    report = analyze_code(
        code,
        with_distance=not args.skip_distance,
        with_weights=not args.skip_weights,
        limit=args.limit,
        jobs=args.jobs,
    )
    doc = {"report": report.to_json_dict(), "locality": None}
    if args.locality or args.availability:
        doc["locality"] = _locality_json(
            code,
            with_availability=args.availability,
            exact_cap=args.packing_cap,
            limit=args.limit,
        )
    with _long_ints():
        if args.format == "json":
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        elif args.format == "csv":
            text = _report_csv(doc)
        else:
            text = _report_text(doc)
    _emit(args, text)
    return 0


@contextlib.contextmanager
def _long_ints():
    """Lift Python's cap on int-to-str digits (4,300 by default, from 3.10.7)
    while a report renders: an exact covering ratio q^M phi1 / q^(bn) can be
    longer. Parsing keeps the cap, which bounds the cost of untrusted input."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no cap
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _cmd_verify(args) -> int:
    field = parse_field(args.field)
    _require_params(args)
    blocks = _read_blocks(field, args.blocks) if args.construction == "from-blocks" else None
    suite = run_verification(
        args.construction,
        field,
        M=args.M,
        b=args.b,
        t=args.t,
        class_index=args.class_index,
        method=args.method,
        blocks=blocks,
        limit=args.limit,
        exact_cap=args.packing_cap,
        availability=not args.no_availability,
    )
    if args.format == "json":
        text = json.dumps(suite.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(suite.lines()) + "\n"
    _emit(args, text)
    return 0 if suite.ok else 1


@contextlib.contextmanager
def _prefixed(prefix: str):
    """An error raised inside has its text prefixed, when the prefix is not empty."""
    try:
        yield
    except (SubspaceCodeError, ValueError) as exc:
        if not prefix:
            raise
        raise type(exc)(f"{prefix}{exc}") from exc


def _cmd_repair(args) -> int:
    # Several --array files are stripes of one code with the same column
    # erased, as when a node fails: one code object repairs them all, so its
    # repair plan for the column is built once.
    code = read_bundle(args.bundle)
    several = len(args.array) > 1
    # with several arrays, an error names the array it concerns
    names = {path: f"{path}: " if several else "" for path in args.array}
    arrays = []
    for path in args.array:
        with _prefixed(names[path]), open(path, "r", encoding="utf-8") as fh:
            arrays.append(parse_matrix(fh.read(), code.field))
    if not 1 <= args.column <= code.n:
        raise OutOfRange(f"column {args.column} outside 1..{code.n}")
    results = []
    for path, array in zip(args.array, arrays):
        with _prefixed(names[path]):
            results.append(repair(code, array, args.column - 1))
    if args.format == "json":
        docs = [
            {
                "column": args.column,
                "restored": list(result.column),
                "recovery_set": [c + 1 for c in result.used.columns],
                "contacted_nodes": result.used.size,
                "message": list(result.message),
            }
            for result in results
        ]
        if several:
            for path, doc in zip(args.array, docs):
                doc["array"] = path
        text = json.dumps(docs if several else docs[0], indent=2, sort_keys=True) + "\n"
    else:
        blocks = [
            f"restored column {args.column}: ({', '.join(str(x) for x in result.column)})\n"
            f"recovery set: columns {sorted(c + 1 for c in result.used.columns)}\n"
            f"contacted nodes: {result.used.size}\n"
            for result in results
        ]
        if several:
            blocks = [f"array {path}\n{block}" for path, block in zip(args.array, blocks)]
        text = "\n".join(blocks)
    _emit(args, text)
    return 0


def _add_construction_args(p, *, verify: bool):
    p.add_argument(
        "construction",
        choices=["all-subspaces", "spread", "std-par", "std-full", "from-blocks"],
        help="code family to %s" % ("verify" if verify else "build"),
    )
    p.add_argument("--field", default="gf(2)", help="field, e.g. gf(2), gf(4), gf(3^2)")
    p.add_argument("-M", type=int, default=None, help="ambient dimension")
    p.add_argument("-b", type=int, default=None, help="column width / subspace dimension")
    p.add_argument("-t", type=int, default=1, help="design strength for std-* families")
    p.add_argument(
        "--class-index", type=int, default=0, help="which parallel class for std-par (0-based)"
    )
    p.add_argument(
        "--method",
        default="gabidulin-echelon",
        help="spread construction method",
    )
    p.add_argument("--blocks", default=None, help="file of basis matrices for from-blocks")
    p.add_argument("--limit", type=_count(1), default=None, help="enumeration cap override")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="subspace-lrc",
        description="Construct and verify array codes built from subspace families.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func):
        p = sub.add_parser(
            name, help=help_text, epilog=EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter
        )
        p.set_defaults(func=func)
        return p

    p_con = command("construct", "build a code and write it as a bundle", _cmd_construct)
    _add_construction_args(p_con, verify=False)
    p_con.add_argument("-o", "--output", default=None, help="bundle path ('-' for stdout)")

    p_ana = command("analyze", "measure distance, weights, locality, availability of a bundle", _cmd_analyze)
    p_ana.add_argument("bundle", help="bundle file from construct")
    p_ana.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    p_ana.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_ana.add_argument("--skip-distance", action="store_true")
    p_ana.add_argument("--skip-weights", action="store_true")
    p_ana.add_argument("--locality", action="store_true", help="include locality profile")
    p_ana.add_argument(
        "--availability", action="store_true", help="include disjoint recovery counts (implies --locality)"
    )
    p_ana.add_argument("--jobs", type=_count(1), default=1, help="parallel weight-scan workers")
    p_ana.add_argument("--limit", type=_count(1), default=None, help="enumeration cap override")
    p_ana.add_argument(
        "--packing-cap", type=_count(0), default=DEFAULT_PACKING_CAP, help="candidate cap for the exact packing search"
    )

    p_ver = command("verify", "check every documented property of a construction", _cmd_verify)
    _add_construction_args(p_ver, verify=True)
    p_ver.add_argument("-o", "--output", default=None, help="report path (default stdout)")
    p_ver.add_argument("--format", choices=["json", "text"], default="text")
    p_ver.add_argument(
        "--packing-cap", type=_count(0), default=DEFAULT_PACKING_CAP, help="candidate cap for the exact packing search"
    )
    p_ver.add_argument(
        "--no-availability", action="store_true", help="skip availability checks"
    )

    p_rep = command("repair", "rebuild one erased column of one or more codeword arrays", _cmd_repair)
    p_rep.add_argument("bundle", help="bundle file from construct")
    p_rep.add_argument(
        "--array",
        action="append",
        required=True,
        help="received codeword array (matrix text); repeat for more stripes of the code",
    )
    p_rep.add_argument("--column", type=int, required=True, help="erased column, 1-based")
    p_rep.add_argument("-o", "--output", default=None, help="result path (default stdout)")
    p_rep.add_argument("--format", choices=["json", "text"], default="text")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)

    try:
        return args.func(args)
    except Inconsistent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SubspaceCodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
