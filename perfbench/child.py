"""Child-process side of the benchmark; each mode runs in a fresh interpreter.

    child.py probe                      import timings of a fresh interpreter
    child.py ref                        the fixed reference process (no adebps code)
    child.py setup                      the set-up step, then exit
    child.py ladder SPEC [TRACE_FILE]   one roots-ladder pass (SPEC is JSON)
    child.py cli TRACE_FILE ARG...      one traced ``adebps`` command

Untraced commands run as ``python3 -m adebps.cli``, not through this file.
"""

import time

T0 = time.perf_counter()  # first statement: the probe measures start-up up to here

import json  # noqa: E402
import sys  # noqa: E402


def probe() -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import common

    common.import_adebps()
    t2 = time.perf_counter()
    print(json.dumps({"t0": T0, "numpy_import_s": t1 - t0, "import_s": t2 - t0}))


def ref() -> None:
    """Imports like the command line's, a numpy scan like the oracle's, a Python loop.

    Timed beside every command the benchmark spawns; its time tracks how
    fast the host runs a fresh interpreter right now.
    """
    import argparse  # noqa: F401
    import csv  # noqa: F401
    import dataclasses  # noqa: F401
    import fractions  # noqa: F401

    import numpy as np

    import common

    C = np.arange(64, dtype=np.int64).reshape(8, 8) % 3 - 1
    idx = np.arange(1 << 16, dtype=np.int64)
    V = np.empty((idx.size, 8), dtype=np.int64)
    for k in range(8):
        V[:, k] = (idx >> (2 * k)) % 7
    int(((V @ C) * V).sum())
    common.calibrate()


def write_trace(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": tracer.summary(), "missing": tracer.missing, "spans": tracer.spans}, fh)


def ladder(spec: str, trace_file: str | None) -> None:
    import common

    A = common.import_adebps()
    tracer = None
    if trace_file:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    common.calibrate()  # warm-up
    cal = common.calibrate()
    for op, kind, rank, parity in json.loads(spec):
        t0 = time.perf_counter()
        try:
            roots, table = common.ladder_op(A, op, kind, rank, parity)
        except Exception as exc:  # counted as a failed operation, never aborts the pass
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        dt = time.perf_counter() - t0
        after = common.calibrate()
        results.append({"s": dt, "ref_s": (cal + after) / 2, "count": len(roots),
                        "roots": common.sha(common.roots_text(roots)),
                        "table": table and common.sha(common.table_text(table))})
        cal = after
    if tracer:
        write_trace(tracer, trace_file)
    print(json.dumps(results))


def cli(trace_file: str, argv: list[str]) -> int:
    import common

    A = common.import_adebps()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = A.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    write_trace(tracer, trace_file)
    return rc


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "probe":
        probe()
    elif mode == "ref":
        ref()
    elif mode == "setup":
        import common

        common.setup_case(common.import_adebps())
    elif mode == "ladder":
        ladder(rest[0], rest[1] if len(rest) > 1 else None)
    elif mode == "cli":
        return cli(rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
