"""Record the reference outputs the benchmark checks every operation against.

Run once on a commit whose outputs are trusted, from the repository root:

    python3 perfbench/record.py

Writes ``perfbench/digests/``:

* ``loc.json`` -- the folded e8-a5 table (class and folding invariant).
* ``loc_box12.bin`` -- for every class in [0,12]^4, the first 4 bytes of
  the SHA-256 of its canonical localization output (see
  ``common.localize_one``), at offset 4 * ``common.box_index(class)``.
  The zero class holds four zero bytes.  Takes several minutes.
* ``ladder.json`` -- root count and digests of the root list and of the
  folded table under both alternating markings, per ladder diagram; root
  count and root-list digest of each oracle scan.
* ``cli.json`` -- exit code and stdout digest of every command the
  cli-oneshot workload can issue.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import common


def record_loc(A) -> None:
    m, g = common.setup_case(A)
    table = A.bps_table(m)
    data = {"case": common.CASE,
            "table": [[list(r.cls), str(r.invariant)] for r in table]}
    with open(common.DIGESTS / "loc.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    folded = {r.cls: r.invariant for r in table}
    out = bytearray(4 * (common.BOX_HI + 1) ** 4)
    t0 = time.perf_counter()
    classes = common.all_box_classes(common.BOX_HI)
    for k, cls in enumerate(classes):
        text, n = common.localize_one(A, m, g, cls)
        if n is not None and n != folded.get(cls):
            raise SystemExit(f"{cls}: localization {n} != folding {folded.get(cls)}")
        i = 4 * common.box_index(cls)
        out[i:i + 4] = common.box_digest(text)
        if k % 2000 == 0:
            print(f"box: {k}/{len(classes)} classes, {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    (common.DIGESTS / "loc_box12.bin").write_bytes(bytes(out))


def record_ladder(A) -> None:
    data = {}
    for kind, rank in common.LADDER:
        tables = []
        for parity in (0, 1):
            roots, table = common.ladder_op(A, "fold", kind, rank, parity)
            tables.append(common.sha(common.table_text(table)))
        if len(roots) != common.closed_form_count(kind, rank):
            raise SystemExit(f"{kind}{rank}: {len(roots)} roots")
        data[f"fold {kind}{rank}"] = {"count": len(roots), "roots": common.sha(common.roots_text(roots)),
                                      "table": tables}
    for kind, rank in common.ORACLE_RUNGS:
        roots, _ = common.ladder_op(A, "oracle", kind, rank, 0)
        if roots != common.ladder_op(A, "fold", kind, rank, 0)[0]:
            raise SystemExit(f"{kind}{rank}: oracle and closure disagree")
        data[f"oracle {kind}{rank}"] = {"count": len(roots), "roots": common.sha(common.roots_text(roots))}
    with open(common.DIGESTS / "ladder.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def record_cli(A) -> None:
    classes = [",".join(map(str, r.cls)) for r in A.bps_table(A.load_case(common.CASE)[0])]
    commands = list(common.FIXED_COMMANDS)
    for c in classes:
        for fmt in ("plain", "json"):
            commands.append(common.localize_command(c, fmt, ["--case", common.CASE]))
    data = {}
    for key, argv in commands:
        p = subprocess.run([sys.executable, "-m", "adebps.cli", *argv], capture_output=True,
                           env=common.child_env(), cwd=common.ROOT)
        data[key] = {"exit": p.returncode, "stdout": common.sha(p.stdout)}
    with open(common.DIGESTS / "cli.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    A = common.import_adebps()
    common.DIGESTS.mkdir(exist_ok=True)
    record_loc(A)
    record_ladder(A)
    record_cli(A)


if __name__ == "__main__":
    main()
