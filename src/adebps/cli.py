"""Command line: enumerate roots, fold tables, localize classes, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
141 (128 + SIGPIPE, as a shell reports it) when stdout is closed early.
All output is deterministic; exact rationals print as p/q.
Beyond the diagram layer (rootsys and folding), each command imports the
modules it runs, and json and csv only where it prints them, so a short
command does not load the whole package: reading, checking and printing
a descriptor loads ``descriptor``, and only ``localize`` and ``verify``
load the localization engine and its arithmetic.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import TYPE_CHECKING

# module level, so that `import adebps.cli` leaves the diagram layer loaded:
# perfbench's roots-ladder child times its first operation right after it
from .folding import Marking, bps_table, parse_marking
from .rootsys import build_diagram, enumerate_positive_roots, parse_int

if TYPE_CHECKING:
    from .descriptor import GeometryDescriptor


def _load_marking(args) -> Marking:
    if args.case:
        from .catalog import load_marking

        return load_marking(args.case)
    with open(args.marking, encoding="utf-8") as fh:
        return parse_marking(fh.read())


def _load_geometry(args) -> tuple[Marking, GeometryDescriptor]:
    if args.case:
        if args.marking or args.descriptor:
            raise ValueError("--case cannot be combined with --marking or --descriptor")
        from .catalog import load_case

        return load_case(args.case)
    if not (args.marking and args.descriptor):
        raise ValueError("need --case, or both --marking and --descriptor")
    from .descriptor import parse_descriptor, validate_descriptor

    m = _load_marking(args)
    with open(args.descriptor, encoding="utf-8") as fh:
        g = parse_descriptor(fh.read())
    for warning in validate_descriptor(g, m):
        print(f"warning: {warning}", file=sys.stderr)
    return m, g


def _parse_class(text: str) -> tuple[int, ...]:
    try:
        cls = tuple(parse_int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad class {text!r}: expected comma-separated integers") from None
    return cls


def cmd_roots(args) -> int:
    d = build_diagram(args.kind, args.rank)
    roots = enumerate_positive_roots(d)
    if args.format == "json":
        import json

        print(json.dumps({"kind": d.kind, "rank": d.rank, "count": len(roots),
                          "roots": [list(r) for r in roots]}))
    elif args.format == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(d.node_names())
        writer.writerows(roots)
        sys.stdout.write(out.getvalue())
    else:
        for r in roots:
            print(",".join(str(c) for c in r))
        print(f"count: {len(roots)}")
    return 0


def cmd_table(args) -> int:
    m = _load_marking(args)
    table = bps_table(m)
    mapped = sum(r.fiber_count for r in table)
    dropped = len(enumerate_positive_roots(m.diagram)) - mapped
    if args.format == "json":
        import json

        print(json.dumps({
            "kind": m.diagram.kind,
            "rank": m.diagram.rank,
            "classes": [{"class": list(r.cls), "fibers": r.fiber_count, "n": str(r.invariant)}
                        for r in table],
            "roots_mapped": mapped,
            "roots_dropped": dropped,
        }))
    elif args.format == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["class", "fibers", "n"])
        for r in table:
            writer.writerow([",".join(str(c) for c in r.cls), r.fiber_count, str(r.invariant)])
        sys.stdout.write(out.getvalue())
    else:
        print("class  fibers  n")
        for r in table:
            print(f"{','.join(str(c) for c in r.cls)}  {r.fiber_count}  {r.invariant}")
        print(f"summary: {mapped} roots over {len(table)} classes, {dropped} dropped")
    return 0


def cmd_localize(args) -> int:
    from .localize import localize_class

    m, g = _load_geometry(args)
    cls = _parse_class(args.cls)
    r = localize_class(cls, m, g)
    # (plain label, json key, value), in output order
    rows = (("chi", "chi", r.chi), ("ext1", "ext1", r.ext.ext1), ("ext2", "ext2", r.ext.ext2),
            ("e(ext1)", "euler_ext1", r.euler_ext1), ("e(ext2)", "euler_ext2", r.euler_ext2),
            ("n", "n", r.n))
    if args.format == "json":
        import json

        print(json.dumps({"class": list(cls), **{key: str(value) for _, key, value in rows}}))
    else:
        print(f"class = {','.join(map(str, cls))}")
        for label, _, value in rows:
            print(f"{label} = {value}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(args.case, quick=args.quick)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f": {r.detail}" if (r.detail and not r.passed) else ""
        print(f"{status} {r.name}{detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def cmd_dump_descriptor(args) -> int:
    from .catalog import load_case
    from .descriptor import format_descriptor

    _, g = load_case(args.case)
    sys.stdout.write(format_descriptor(g))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adebps",
        description="Exact genus-0 BPS invariants of ADE resolutions, "
                    "by root folding and by equivariant localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="enumerate the positive roots of an ADE diagram")
    p.add_argument("kind", help="A, D or E")
    p.add_argument("rank", type=parse_int)
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("table", help="fold all positive roots into the invariant table")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--case", help="built-in case name, e.g. e8-a5")
    src.add_argument("--marking", help="marking file")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("localize", help="compute one invariant by localization")
    p.add_argument("cls", metavar="CLASS", help="comma-separated white multiplicities, e.g. 3,5,4,3")
    p.add_argument("--case", help="built-in case name")
    p.add_argument("--marking", help="marking file (with --descriptor)")
    p.add_argument("--descriptor", help="fixed-point data file (with --marking)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("verify", help="run the itemized consistency checks")
    p.add_argument("--case", default="e8-a5")
    p.add_argument("--quick", action="store_true", help="reference classes only")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump-descriptor", help="print the built-in fixed-point data file")
    p.add_argument("--case", default="e8-a5")
    p.set_defaults(func=cmd_dump_descriptor)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so that a closed pipe is caught here
        return code
    except BrokenPipeError:  # an OSError, but no input error: the reader went away
        # the interpreter flushes stdout again at exit: let it write nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # DescriptorError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
