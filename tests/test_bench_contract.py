"""The benchmark's recorded outputs, checked in-process.

``perfbench/digests`` holds the stdout digest and exit code of every
command the cli-oneshot workload can issue, the localization digest of
every class in [0,12]^4, the folded e8-a5 table, and the root lists and
folded tables of the roots-ladder diagrams and oracle scans.  The benchmark
fails an operation whose output drifts from them, so this suite pins
the same outputs, through the same helpers in ``perfbench/common.py``,
which it only reads.
"""

import contextlib
import importlib.util
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest

import adebps
import adebps.catalog
import adebps.folding
import adebps.localize
import adebps.rootsys
import adebps.symring
import adebps.verify
from adebps.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def common():
    spec = importlib.util.spec_from_file_location("perfbench_common", BENCH / "common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def test_cli_digests(common, tmp_path):
    # the commands perfbench/record.py records, plus each localize command
    # again from marking and descriptor files, which must print the same bytes
    expected = common.load_json("cli.json")
    marking, descriptor = tmp_path / "e8-a5.marking", tmp_path / "e8-a5.descriptor"
    marking.write_text(common.MARKING_TEXT, encoding="utf-8")
    descriptor.write_text(adebps.format_descriptor(adebps.load_case(common.CASE)[1]), encoding="utf-8")
    files = ["--marking", str(marking), "--descriptor", str(descriptor)]
    classes = [",".join(map(str, r.cls)) for r in adebps.bps_table(adebps.load_case(common.CASE)[0])]
    commands = list(common.FIXED_COMMANDS)
    for c in classes:
        for fmt in ("plain", "json"):
            for source in (["--case", common.CASE], files):
                commands.append(common.localize_command(c, fmt, source))
    assert {key for key, _ in commands} == set(expected) and len(expected) == 78
    drift = []
    for key, argv in commands:
        code, out = _run(argv)
        if (code, common.sha(out)) != (expected[key]["exit"], expected[key]["stdout"]):
            drift.append((key, argv, code))
    assert drift == []


def test_setup_loads_no_localization_engine():
    # the set-up step that setup_s times, as the benchmark's set-up child runs it in a
    # fresh interpreter: case load, descriptor format, parse and validate, marking parse
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import common\n"
        "common.setup_case(common.import_adebps())\n"
        "print(*sorted(m for m in sys.modules if m.startswith('adebps')))\n"
    )
    p = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    loaded = set(p.stdout.split())
    assert {"adebps.catalog", "adebps.descriptor", "adebps.folding", "adebps.rootsys"} <= loaded
    assert loaded & {"adebps.localize", "adebps.symring"} == set()


def test_localization_digests(common):
    m, g = common.setup_case(adebps)
    folded = {tuple(c): n for c, n in common.load_json("loc.json")["table"]}
    assert {r.cls: str(r.invariant) for r in adebps.bps_table(m)} == folded
    box = (common.DIGESTS / "loc_box12.bin").read_bytes()
    small = [c for c in common.all_box_classes(common.SMALL_HI) if c not in folded]
    # and a fixed sample of the larger box, whose numerators are the longest
    pool = [c for c in common.all_box_classes(common.BOX_HI) if max(c) > common.SMALL_HI and c not in folded]
    classes = list(folded) + small + random.Random(12).sample(pool, 300)
    drift = []
    for cls in classes:
        text, n = common.localize_one(adebps, m, g, cls)
        j = 4 * common.box_index(cls)
        if common.box_digest(text) != box[j : j + 4]:
            drift.append((cls, text))
        elif (n is not None or cls in folded) and str(n) != folded.get(cls):
            drift.append((cls, n, folded.get(cls)))
    assert drift == []


def test_ladder_digests(common):
    # every fold diagram under both alternating markings, and every oracle scan
    expected = common.load_json("ladder.json")
    runs = [("fold", kind, rank, parity) for kind, rank in common.LADDER for parity in (0, 1)]
    runs += [("oracle", kind, rank, 0) for kind, rank in common.ORACLE_RUNGS]
    assert {f"{op} {kind}{rank}" for op, kind, rank, _ in runs} == set(expected)
    drift = []
    for op, kind, rank, parity in runs:
        want = expected[f"{op} {kind}{rank}"]
        roots, table = common.ladder_op(adebps, op, kind, rank, parity)
        got = (len(roots), common.sha(common.roots_text(roots)))
        if got != (want["count"], want["roots"]):
            drift.append((op, kind, rank, got))
        if op == "fold" and common.sha(common.table_text(table)) != want["table"][parity]:
            drift.append((op, kind, rank, parity))
    assert drift == []


def test_traced_names_resolve():
    # a name the tracer cannot find reads 0 on its per-layer metric, so a
    # rename or deletion has to update this list; the imports at the top
    # load every adebps module the tracer patches, since the package loads
    # a module only when one of its names is used
    spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = adebps.localize.total_chi
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert adebps.localize.total_chi is not original
    finally:
        tracer.uninstall()
    assert sorted(tracer.missing) == [
        "localize.chern_character_at", "localize.curve_contribution", "localize.parse_descriptor",
        "localize.point_contribution", "localize.validate_descriptor", "symring.RatFn.new", "symring.to_polynomial",
    ]
    assert adebps.localize.total_chi is original
