"""Two-level benchmark for adebps: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of loc-sweep, roots-ladder, cli-oneshot, or
``all`` (each workload in turn, in its own process).  Run from anywhere;
the program measured is ``src/adebps`` of the checkout holding this file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics.  Human-readable lines come first.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
from tracing import COUNT_ONLY, ORACLE_VECTORS, Tracer, merge

CHILD = str(common.BENCH / "child.py")
OUT = common.BENCH / "out"
SETUP_RUNS = 7
PROBE_RUNS = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # per half of a traced run: untraced, then traced
LOC_CHUNK = 24         # loc-sweep classes between two calibrations
CHILD_TIMEOUT = 60
MAX_REPORTED_FAILURES = 20


@dataclass
class Pass:
    """One full pass of a workload.  Operations are keyed by their position."""

    wall: float = 0.0
    attempted: int = 0
    units: int = 0  # work units: classes, roots or commands
    rss_kb: int = 0  # peak resident set of the process(es) doing the work
    op_s: dict[int, float] = field(default_factory=dict)
    ref_s: dict[int, float] = field(default_factory=dict)  # reference time beside each op
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    missing: set = field(default_factory=set)  # names a traced child could not wrap or compute


class Failures:
    """Counts failed operations and prints the first few; never aborts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.count = 0

    def __call__(self, what: str) -> None:
        self.count += 1
        if self.count <= MAX_REPORTED_FAILURES:
            print(f"FAIL {self.workload}: {what}", file=sys.stderr)


def _alarm(signum, frame):
    raise TimeoutError


def run_child(argv: list[str]) -> tuple[subprocess.CompletedProcess | None, float, int]:
    """Run one child to completion: (result or None on timeout, seconds, its peak RSS in KiB).

    The child is reaped with ``wait4`` to read its own peak RSS; its output
    goes to unnamed files in this directory, so no pipe can fill up.
    """
    with tempfile.TemporaryFile(dir=common.BENCH) as out, tempfile.TemporaryFile(dir=common.BENCH) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=common.child_env(), cwd=common.ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        timed_out = False
        try:
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                timed_out = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out:
            return None, dt, usage.ru_maxrss
        out.seek(0)
        err.seek(0)
        return subprocess.CompletedProcess(argv, proc.returncode, out.read(), err.read()), dt, usage.ru_maxrss


def trace_of(path: Path) -> tuple[dict, list, list]:
    """Layer summary, spans and missing names a traced child wrote."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["summary"], data["spans"], data["missing"]


# -- workloads -------------------------------------------------------------------


class LocSweep:
    """Localize every class of the sweep in this process; fold once per pass."""

    unit = "classes"
    rate = "classes_per_s"
    op = "class"

    def __init__(self, seed: int, work: Path, fail: Failures):
        self.A = common.import_adebps()
        self.m, self.g = common.setup_case(self.A)
        recorded = common.load_json("loc.json")
        self.folded = {tuple(c): n for c, n in recorded["table"]}
        self.classes = common.loc_classes(seed, list(self.folded))
        self.box = (common.DIGESTS / "loc_box12.bin").read_bytes()
        self.fail = fail
        common.localize_one(self.A, self.m, self.g, self.classes[0])  # warm the root cache

    def run_pass(self, p: Pass, traced: bool) -> None:
        A, m, g = self.A, self.m, self.g
        clock = time.perf_counter
        p.attempted += 1
        folded: dict[tuple[int, ...], str] = {}  # this pass's folding side of the cross-check
        try:
            folded = {r.cls: str(r.invariant) for r in A.bps_table(m)}
            if folded != self.folded:
                self.fail("folded e8-a5 table differs from the recorded one")
        except Exception as exc:
            self.fail(f"bps_table raised {type(exc).__name__}: {exc}")
        cal = common.calibrate()
        for start in range(0, len(self.classes), LOC_CHUNK):
            chunk = range(start, min(start + LOC_CHUNK, len(self.classes)))
            for i in chunk:
                cls = self.classes[i]
                p.attempted += 1
                t0 = clock()
                try:
                    text, n = common.localize_one(A, m, g, cls)
                except Exception as exc:
                    self.fail(f"class {cls} raised {type(exc).__name__}: {exc}")
                    continue
                p.op_s[i] = clock() - t0
                p.units += 1
                j = 4 * common.box_index(cls)
                if common.box_digest(text) != self.box[j:j + 4]:
                    self.fail(f"class {cls}: output differs from the recorded digest: {text}")
                elif (n is not None or cls in folded) and str(n) != folded.get(cls):
                    self.fail(f"class {cls}: localization {n} != folding {folded.get(cls)}")
            after = common.calibrate()
            for i in chunk:
                if i in p.op_s:
                    p.ref_s[i] = (cal + after) / 2
            cal = after
        p.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class RootsLadder:
    """One child process per pass: each diagram's closure is cold exactly once."""

    unit = "roots"
    rate = "roots_per_s"
    op = "diagram"

    def __init__(self, seed: int, work: Path, fail: Failures):
        self.spec = common.ladder_spec(seed)
        self.expected = common.load_json("ladder.json")
        self.work = work
        self.fail = fail
        self.calls = 0

    def run_pass(self, p: Pass, traced: bool) -> None:
        self.calls += 1
        trace_file = self.work / f"ladder-{self.calls}.json"
        argv = [sys.executable, CHILD, "ladder", json.dumps(self.spec)]
        proc, _, p.rss_kb = run_child(argv + ([str(trace_file)] if traced else []))
        if proc is None or proc.returncode != 0:
            why = "timeout" if proc is None else proc.stderr.decode()[-400:]
            for op, kind, rank, _ in self.spec:
                p.attempted += 1
                self.fail(f"{op} {kind}{rank}: ladder child failed: {why}")
            return
        results = json.loads(proc.stdout.decode().splitlines()[-1])
        for i, ((op, kind, rank, parity), r) in enumerate(zip(self.spec, results)):
            p.attempted += 1
            name = f"{op} {kind}{rank}"
            if "error" in r:
                self.fail(f"{name}: {r['error']}")
                continue
            p.op_s[i], p.ref_s[i] = r["s"], r["ref_s"]
            p.units += r["count"]
            want = self.expected[name]
            closed = common.closed_form_count(kind, rank)
            if r["count"] != closed or r["count"] != want["count"]:
                self.fail(f"{name}: {r['count']} roots, closed form {closed}")
            elif r["roots"] != want["roots"]:
                self.fail(f"{name}: root list differs from the recorded digest")
            elif op == "fold" and r["table"] != want["table"][parity]:
                self.fail(f"{name}: folded table (black colour {parity}) differs")
        if traced:
            p.layers, spans, missing = trace_of(trace_file)
            p.missing.update(missing)
            p.spans.append({"process": "ladder", "spans": spans})


class Commands:
    """Each command runs as ``python3 -m adebps.cli`` in a fresh interpreter."""

    unit = "commands"
    rate = "commands_per_s"
    op = "cmd"

    def __init__(self, work: Path, fail: Failures, script: list[tuple[str, list[str]]]):
        self.expected = common.load_json("cli.json")
        self.work = work
        self.fail = fail
        self.script = script
        self.calls = 0

    def run_pass(self, p: Pass, traced: bool) -> None:
        cal = reference()
        for i, (key, argv) in enumerate(self.script):
            self.calls += 1
            trace_file = self.work / f"cmd-{self.calls}.json"
            if traced:
                cmd = [sys.executable, CHILD, "cli", str(trace_file), *argv]
            else:
                cmd = [sys.executable, "-m", "adebps.cli", *argv]
            p.attempted += 1
            proc, dt, rss_kb = run_child(cmd)
            p.rss_kb = max(p.rss_kb, rss_kb)
            after = reference()
            beside, cal = (cal + after) / 2, after
            if proc is None:
                self.fail(f"{key}: timed out")
                continue
            p.op_s[i], p.ref_s[i] = dt, beside
            p.units += 1
            want = self.expected[key]
            if proc.returncode != want["exit"]:
                self.fail(f"{key}: exit {proc.returncode}, expected {want['exit']}: "
                             f"{proc.stderr.decode()[-400:]}")
            elif common.sha(proc.stdout) != want["stdout"]:
                self.fail(f"{key}: stdout differs from the recorded digest")
            if traced and trace_file.exists():
                summary, spans, missing = trace_of(trace_file)
                p.missing.update(missing)
                merge(p.layers, summary)
                p.spans.append({"process": key, "spans": spans})


def cli_oneshot(seed: int, work: Path, fail: Failures) -> Commands:
    # the input files come from the command line, so this process never loads adebps
    marking, descriptor = work / "e8-a5.marking", work / "e8-a5.descriptor"
    marking.write_text(common.MARKING_TEXT, encoding="utf-8")
    proc, _, _ = run_child([sys.executable, "-m", "adebps.cli", "dump-descriptor", "--case", common.CASE])
    if proc is None or proc.returncode != 0:
        raise RuntimeError(f"dump-descriptor failed: {proc and proc.stderr.decode()[-400:]}")
    descriptor.write_bytes(proc.stdout)
    table = [tuple(c) for c, _ in common.load_json("loc.json")["table"]]
    return Commands(work, fail, common.cli_script(seed, table, str(marking), str(descriptor)))


WORKLOADS = {"loc-sweep": LocSweep, "roots-ladder": RootsLadder, "cli-oneshot": cli_oneshot}


# -- measurement ---------------------------------------------------------------------


def reference() -> float:
    """Wall time of the fixed reference process, the yardstick for a spawned command."""
    proc, dt, _ = run_child([sys.executable, CHILD, "ref"])
    if proc is None or proc.returncode != 0:
        raise RuntimeError(f"reference process failed: {proc and proc.stderr.decode()[-400:]}")
    return dt


def measure_setup(n: int) -> list[float]:
    """Wall time of ``n`` fresh interpreters running the set-up step."""
    times = []
    for _ in range(n):
        proc, dt, _ = run_child([sys.executable, CHILD, "setup"])
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc and proc.stderr.decode()[-400:]}")
        times.append(dt)
    return times


def probe_imports() -> dict[str, list[float]]:
    out: dict[str, list[float]] = {"cli.interp_start_s": [], "cli.numpy_import_s": [], "cli.import_s": []}
    for _ in range(PROBE_RUNS):
        t_spawn = time.perf_counter()
        proc, _, _ = run_child([sys.executable, CHILD, "probe"])
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc and proc.stderr.decode()[-400:]}")
        data = json.loads(proc.stdout)
        out["cli.interp_start_s"].append(data["t0"] - t_spawn)
        out["cli.numpy_import_s"].append(data["numpy_import_s"])
        out["cli.import_s"].append(data["import_s"])
    return out


def run_passes(bench, seconds: float, min_passes: int, between=None,
               traced_setup: Tracer | None = None) -> list[Pass]:
    """Closed loop of full passes; stops when another pass would overrun ``seconds``.

    ``between`` runs after each pass, outside the measured time.  With a
    tracer, each pass first repeats the set-up step in this process under
    the tracer, so set-up layers appear in every traced pass.
    """
    passes: list[Pass] = []
    while True:
        p = Pass()
        if traced_setup is not None:
            traced_setup.reset()
            common.setup_case(common.import_adebps())
        t0 = time.perf_counter()
        bench.run_pass(p, traced_setup is not None)
        p.wall = time.perf_counter() - t0
        if traced_setup is not None:
            merge(p.layers, traced_setup.summary())
            p.spans.append({"process": "run.py", "spans": list(traced_setup.spans)})
        passes.append(p)
        if between:
            between()
        walls = [q.wall for q in passes]
        if len(passes) >= min_passes and sum(walls) + statistics.median(walls) > seconds:
            return passes


def pass_times(passes: list[Pass]) -> tuple[float, float]:
    """(pass_s, pass_rel) of a run.

    pass_s: each operation's fastest time over the run's passes, summed --
    one pass with the time lost to a busy host taken out.
    pass_rel: each operation's median ratio to the reference timed beside
    it, summed -- the same pass in units of the reference.
    """
    ops: dict[int, list[Pass]] = {}
    for p in passes:
        for i in p.op_s:
            ops.setdefault(i, []).append(p)
    pass_s = sum(min(p.op_s[i] for p in ps) for i, ps in ops.items())
    pass_rel = sum(statistics.median(p.op_s[i] / p.ref_s[i] for p in ps) for i, ps in ops.items())
    return pass_s, pass_rel


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile_lines(op: str, samples: list[float]) -> list[str]:
    """Median, p90 and p99 of one operation, each only with ten samples beyond it."""
    lines = []
    n = len(samples)
    for pct in (50, 90, 99):
        if n * (100 - pct) / 100 < 10:
            lines.append(f"{op}_p{pct}_ms: not reported (n={n}, fewer than 10 samples beyond it)")
            break
        value = statistics.quantiles(samples, n=100)[pct - 1] * 1000
        lines.append(f"{op}_p{pct}_ms: {value:.4f} ms (n={n})")
    return lines


def config() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_specs(kind: str) -> list[dict]:
    return config()[kind]


def emit(correct: bool, attempted: int, failed: int, kind: str, values: dict[str, float]) -> None:
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in metric_specs(kind)}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def end_to_end(bench, fail: Failures, seconds: float) -> None:
    # set-ups are spread over the run, so one busy stretch of the host does not set the median
    setup = measure_setup(2)
    passes = run_passes(bench, seconds, MIN_PASSES, between=lambda: setup.extend(measure_setup(2)))
    setup += measure_setup(max(0, SETUP_RUNS - len(setup)))
    attempted = sum(p.attempted for p in passes)
    units = statistics.median(p.units for p in passes)
    samples = [t for p in passes for t in p.op_s.values()]
    pass_s, pass_rel = pass_times(passes)
    walls = [p.wall for p in passes]
    refs = [c for p in passes for c in p.ref_s.values()]
    values = {
        "setup_s": statistics.median(setup),
        "pass_rel": pass_rel,
        "peak_rss_mb": max(p.rss_kb for p in passes) / 1024,
    }
    q = quartiles(setup)
    print(f"setup_s: {values['setup_s']:.4f} s (median of {len(setup)} fresh set-ups, q1 {q[0]:.4f}, q3 {q[2]:.4f})")
    print(f"pass_rel: {pass_rel:.4f} ref (each operation's median time over the reference beside it, "
          f"summed; reference median {statistics.median(refs) * 1000:.3f} ms)")
    print(f"pass_s: {pass_s:.4f} s (fastest time of each operation over {len(passes)} passes, summed)")
    print(f"{bench.rate}: {units / pass_s:.4f} 1/s ({bench.unit} per second of pass_s)")
    print(f"peak_rss_mb: {values['peak_rss_mb']:.1f} MB")
    q = quartiles(walls)
    print(f"pass wall time: median {statistics.median(walls):.4f} s, q1 {q[0]:.4f}, q3 {q[2]:.4f} "
          f"(n={len(walls)}, calibrations included)")
    print(f"ops: {passes[0].attempted} per pass ({bench.op} operations, {units:g} {bench.unit})")
    print(f"fail_frac: {fail.count / attempted:.4f} ({fail.count} of {attempted})")
    for line in percentile_lines(bench.op, samples):
        print(line)
    emit(fail.count == 0, attempted, fail.count, "end_to_end", values)


def traced(name: str, bench, fail: Failures, seconds: float, seed: int) -> None:
    common.import_adebps()  # the tracer wraps what is loaded
    probes = probe_imports()
    plain = run_passes(bench, seconds / 2, MIN_TRACED_PASSES)
    tracer = Tracer()
    tracer.install()
    try:
        traced_passes = run_passes(bench, seconds / 2, MIN_TRACED_PASSES, traced_setup=tracer)
    finally:
        tracer.uninstall()
    layer_names = sorted({k for p in traced_passes for k in p.layers})
    table = {}
    for key in layer_names:
        rows = [p.layers.get(key, {"calls": 0, "s": 0.0, "self_s": 0.0}) for p in traced_passes]
        calls = {r["calls"] for r in rows}
        if len(calls) > 1:
            print(f"note: {key} call count varies across traced passes: {sorted(calls)}", file=sys.stderr)
        table[key] = {"calls": rows[0]["calls"], "s": statistics.median(r["s"] for r in rows),
                      "self_s": statistics.median(r["self_s"] for r in rows)}
    plain_rel = pass_times(plain)[1]
    traced_rel = pass_times(traced_passes)[1]
    values = {f"{k}.calls": v["calls"] for k, v in table.items() if k != ORACLE_VECTORS}
    values.update({f"{k}.s": v["s"] for k, v in table.items() if k not in COUNT_ONLY})
    missing = sorted(set(tracer.missing).union(*(p.missing for p in traced_passes)))
    # a count that could not be computed for every oracle call is not reported as a partial sum
    values[ORACLE_VECTORS] = 0 if ORACLE_VECTORS in missing else table.get(ORACLE_VECTORS, {"calls": 0})["calls"]
    for key, samples in probes.items():
        values[key] = statistics.median(samples)
    values["trace.pass_rel"] = traced_rel
    values["trace.overhead_rel"] = traced_rel - plain_rel
    for spec in metric_specs("per_layer"):  # a layer not called, or no longer there, reads 0
        values.setdefault(spec["name"], 0)

    print(f"traced run: {len(traced_passes)} traced passes, {len(plain)} untraced; "
          f"layer times are per pass (set-up step + pass), medians over traced passes")
    print(f"{'layer':46} {'calls':>9} {'s':>10} {'self_s':>10}")
    for key in layer_names:
        row = table[key]
        if key in COUNT_ONLY:
            note = " (counted, no span)"
            if key == ORACLE_VECTORS:
                note = " (not computable for every call: reported as 0)" if key in missing else \
                    " (computed: sum of (bound+1)^rank)"
            print(f"{key:46} {row['calls']:>9} {'-':>10} {'-':>10}{note}")
        else:
            print(f"{key:46} {row['calls']:>9} {row['s']:>10.4f} {row['self_s']:>10.4f}")
    for key in sorted(probes):
        print(f"{key}: {values[key]:.4f} s (median of {len(probes[key])} fresh interpreters)")
    print(f"trace.pass_rel: {traced_rel:.4f} ref traced vs {plain_rel:.4f} ref untraced pass_rel; "
          f"trace.overhead_rel: {traced_rel - plain_rel:.4f} ref ({traced_rel / plain_rel - 1:+.1%})")
    print(f"missing (not measured; each reads 0 in the JSON): {', '.join(missing) if missing else 'none'}")
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"trace-{name}-seed{seed}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "layers": table,
                   "probes": {k: values[k] for k in probes},
                   "pass_rel": {"traced": traced_rel, "untraced": plain_rel},
                   "missing": missing, "spans_first_traced_pass": traced_passes[0].spans}, fh)
    print(f"spans of the first traced pass written to {out_file.relative_to(common.ROOT)}")
    attempted = sum(p.attempted for p in plain + traced_passes)
    emit(fail.count == 0, attempted, fail.count, "per_layer", values)


def run_all(args) -> int:
    """Every workload in its own process; prints each report, then a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=common.ROOT)
        print(f"== {name}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=config()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        common.require_source()
    except common.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    fail = Failures(args.workload)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=common.BENCH))
    try:
        bench = WORKLOADS[args.workload](args.seed, work, fail)
        if args.trace:
            traced(args.workload, bench, fail, args.seconds, args.seed)
        else:
            end_to_end(bench, fail, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
