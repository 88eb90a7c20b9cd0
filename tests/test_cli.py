import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from adebps.catalog import e8_a5_descriptor
from adebps.cli import main
from adebps.localize import format_descriptor, parse_descriptor


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args):
    """Run a fresh interpreter on this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestRoots:
    def test_e8_count(self, capsys):
        code, out, _ = run(capsys, "roots", "E", "8")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[-1] == "count: 120"
        assert len(lines) == 121

    def test_a1(self, capsys):
        code, out, _ = run(capsys, "roots", "A", "1")
        assert code == 0
        assert out == "1\ncount: 1\n"

    def test_illegal_rank_exits_2(self, capsys):
        code, _, err = run(capsys, "roots", "D", "3")
        assert code == 2
        assert "error:" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "roots", "A", "2", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["count"] == 3
        assert [0, 1] in data["roots"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "roots", "A", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n1,n2"


class TestTable:
    def test_builtin_case(self, capsys):
        code, out, _ = run(capsys, "table", "--case", "e8-a5")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "class  fibers  n"
        assert len(lines) == 38  # header + 36 classes + summary
        assert lines[-1] == "summary: 116 roots over 36 classes, 4 dropped"
        assert "3,5,4,3  2  1" in lines
        assert "2,4,4,2  1  1/2" in lines

    def test_csv_matches_plain(self, capsys):
        _, plain, _ = run(capsys, "table", "--case", "e8-a5")
        code, out, _ = run(capsys, "table", "--case", "e8-a5", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "class,fibers,n"
        assert len(rows) == 37
        plain_rows = [tuple(l.split("  ")) for l in plain.strip().splitlines()[1:-1]]
        csv_rows = [tuple(r.rsplit(",", 2)) for r in rows[1:]]
        csv_rows = [(c.strip('"'), f, n) for c, f, n in csv_rows]
        assert plain_rows == csv_rows

    def test_json_round_trip(self, capsys):
        _, plain, _ = run(capsys, "table", "--case", "e8-a5")
        code, out, _ = run(capsys, "table", "--case", "e8-a5", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["roots_mapped"] == 116 and data["roots_dropped"] == 4
        plain_rows = [l.split("  ") for l in plain.strip().splitlines()[1:-1]]
        assert [
            [",".join(str(c) for c in row["class"]), str(row["fibers"]), row["n"]]
            for row in data["classes"]
        ] == plain_rows

    def test_marking_file(self, capsys, tmp_path):
        path = tmp_path / "a1.txt"
        path.write_text("kind A\nrank 1\nblack\nwhite n1\n", encoding="utf-8")
        code, out, _ = run(capsys, "table", "--marking", str(path))
        assert code == 0
        assert "1  1  1/2" in out
        assert "summary: 1 roots over 1 classes, 0 dropped" in out

    def test_malformed_marking(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("kind A\nrank 2\nblack n1\n", encoding="utf-8")
        code, _, err = run(capsys, "table", "--marking", str(path))
        assert code == 2 and "error:" in err

    def test_repeated_marking_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "twice.txt"
        path.write_text("kind A\nrank 2\nblack n1\nwhite n2\nblack n2\n", encoding="utf-8")
        code, out, err = run(capsys, "table", "--marking", str(path))
        assert code == 2 and out == ""
        assert err == "error: marking line 5: repeated 'black' line\n"

    def test_unknown_case(self, capsys):
        code, _, err = run(capsys, "table", "--case", "missing")
        assert code == 2 and "unknown case" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "table", "--case", "e8-a5")
        _, second, _ = run(capsys, "table", "--case", "e8-a5")
        assert first == second


class TestLocalize:
    def test_rigid_class(self, capsys):
        code, out, _ = run(capsys, "localize", "3,5,4,3", "--case", "e8-a5")
        assert code == 0
        assert "chi = 1 - mu^3" in out
        assert "n = 1" in out

    def test_largest_invariant_class(self, capsys):
        code, out, _ = run(capsys, "localize", "1,2,2,1", "--case", "e8-a5")
        assert code == 0
        assert "ext1 = 2*mu^1" in out
        assert "ext2 = 2*mu^2" in out
        assert "e(ext2) = 4*t^2" in out
        assert "n = 4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "localize", "2,4,4,2", "--case", "e8-a5", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["chi"] == "1 + mu^1 - mu^2 - mu^3"
        assert data["n"] == "1/2"

    def test_zero_class_exits_2(self, capsys):
        code, _, err = run(capsys, "localize", "0,0,0,0", "--case", "e8-a5")
        assert code == 2 and "error:" in err

    def test_non_root_class_exits_2(self, capsys):
        code, _, err = run(capsys, "localize", "6,0,0,6", "--case", "e8-a5")
        assert code == 2 and "positive root" in err

    def test_custom_marking_and_descriptor(self, capsys, tmp_path):
        from adebps.catalog import e8_a5_marking
        from adebps.folding import format_marking

        mpath = tmp_path / "e8.marking"
        mpath.write_text(format_marking(e8_a5_marking()), encoding="utf-8")
        dpath = tmp_path / "e8.desc"
        dpath.write_text(format_descriptor(e8_a5_descriptor()), encoding="utf-8")
        code, out, err = run(
            capsys, "localize", "2,4,3,2", "--marking", str(mpath), "--descriptor", str(dpath)
        )
        assert code == 0 and "n = 2" in out
        assert err == ""

    @pytest.mark.parametrize("flag", ["--marking", "--descriptor"])
    def test_case_with_file_flag_exits_2(self, capsys, flag):
        code, out, err = run(capsys, "localize", "3,5,4,3", "--case", "e8-a5", flag, "/nonexistent")
        assert code == 2 and out == ""
        assert "--case cannot be combined" in err

    def test_validation_warnings_reach_stderr(self, capsys, tmp_path):
        from dataclasses import replace

        from adebps.catalog import e8_a5_marking
        from adebps.folding import format_marking

        g = e8_a5_descriptor()
        bent = replace(g, s_curves=(replace(g.s_curves[0], self_intersection=-1),))
        mpath = tmp_path / "e8.marking"
        mpath.write_text(format_marking(e8_a5_marking()), encoding="utf-8")
        dpath = tmp_path / "bent.desc"
        dpath.write_text(format_descriptor(bent), encoding="utf-8")
        code, out, err = run(
            capsys, "localize", "1,0,0,0", "--marking", str(mpath), "--descriptor", str(dpath)
        )
        assert code == 0
        assert err == "warning: E3: self-intersection -1, not -2\n"
        assert out.startswith("class = 1,0,0,0\n") and out.endswith("n = 2\n")

    def test_missing_descriptor_exits_2(self, capsys, tmp_path):
        mpath = tmp_path / "e8.marking"
        mpath.write_text("kind A\nrank 1\nblack\nwhite n1\n", encoding="utf-8")
        code, _, err = run(capsys, "localize", "1", "--marking", str(mpath))
        assert code == 2 and "descriptor" in err


class TestVerify:
    def test_quick(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "e8-a5", "--quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert lines[-1] == "6/6 checks passed"

    def test_full(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "e8-a5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) - 1 >= 12
        assert lines[-1] == "15/15 checks passed"

    def test_unknown_case_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "missing")
        assert code == 2 and "unknown case" in err

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        from adebps import verify
        from adebps.verify import CheckResult

        # cmd_verify imports run_checks when it runs, so it reads the patched name
        monkeypatch.setattr(
            verify, "run_checks", lambda case, quick: [CheckResult("doomed", False, "boom")]
        )
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert "FAIL doomed: boom" in out

    def test_optimized_interpreter_still_fails(self):
        # python -O strips assert statements; the checks must fail without them
        script = (
            "import sys\n"
            "from adebps import cli, verify\n"
            "rows = list(verify.REFERENCE_CLASSES)\n"
            "rows[0] = (rows[0][0], {0: 1, 3: 1}) + rows[0][2:]\n"
            "verify.REFERENCE_CLASSES = tuple(rows)\n"
            "sys.exit(cli.main(['verify', '--quick']))\n"
        )
        p = run_python("-O", "-c", script)
        assert p.returncode == 1, p.stderr
        assert "FAIL character totals for the four reference classes: (3, 5, 4, 3): chi = 1 - mu^3" in p.stdout
        assert p.stdout.endswith("5/6 checks passed\n")

    def test_golden_check_reads_the_point_weights(self, monkeypatch):
        from adebps import verify

        monkeypatch.setitem(verify.GOLDEN_POINT_WEIGHTS, "Q1", -9)
        [golden] = [r for r in verify.run_checks(quick=True) if r.name.startswith("golden")]
        assert not golden.passed and golden.detail == "restriction weight at Q1"

    def test_box_invariants_catch_a_broken_total(self, monkeypatch):
        from adebps import verify
        from adebps.symring import LaurentPoly

        # vanishes at mu = 1 but is not Serre antisymmetric
        monkeypatch.setattr(verify, "total_chi", lambda lft, g, m: LaurentPoly({0: 1, 1: -1}))
        m, g = verify.catalog.load_case("e8-a5")
        with pytest.raises(AssertionError, match="Serre antisymmetry"):
            verify._box_invariants(m, g)
        monkeypatch.setattr(verify, "total_chi", lambda lft, g, m: LaurentPoly({0: 1}))
        with pytest.raises(AssertionError, match=r"chi\(1\) != 0"):
            verify._box_invariants(m, g)

    def test_box_invariants_detail_names_the_unfitted_checks(self):
        from adebps import verify

        detail = verify._box_invariants(*verify.catalog.load_case("e8-a5"))
        assert detail.startswith("255 classes") and "fitted e8-a5 weights" in detail


class TestDumpDescriptor:
    def test_bit_exact(self, capsys):
        code, out, _ = run(capsys, "dump-descriptor")
        assert code == 0
        assert out == format_descriptor(e8_a5_descriptor())

    def test_round_trips(self, capsys):
        _, out, _ = run(capsys, "dump-descriptor", "--case", "e8-a5")
        assert parse_descriptor(out) == e8_a5_descriptor()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots"])
    assert exc.value.code == 2


ENGINE = {"adebps.localize", "adebps.symring", "adebps.verify"}
CASE = ["--case", "e8-a5"]


LOADS = [
    (["roots", "E", "8"], {"adebps.rootsys"}, ENGINE | {"adebps.catalog", "json", "csv"}),
    (["roots", "E", "8", "--format", "json"], {"json"}, ENGINE | {"csv"}),
    (["table", *CASE], {"adebps.catalog", "adebps.folding"}, ENGINE | {"json", "csv"}),
    (["table", *CASE, "--format", "csv"], {"csv"}, ENGINE | {"json"}),
    (["localize", "3,5,4,3", *CASE], {"adebps.localize"}, {"adebps.verify", "json", "csv"}),
    (["localize", "3,5,4,3", *CASE, "--format", "json"], {"json"}, {"adebps.verify", "csv"}),
    (["dump-descriptor"], {"adebps.localize"}, {"adebps.verify", "json", "csv"}),
    (["verify", "--quick"], {"adebps.verify"}, {"json", "csv"}),
]


@pytest.mark.parametrize("argv, needed, unloaded", LOADS, ids=[" ".join(argv) for argv, _, _ in LOADS])
def test_each_command_loads_only_what_it_runs(argv, needed, unloaded):
    # a fresh interpreter per command; what it had loaded before adebps does not count
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from adebps.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print('loaded:', *sorted(set(sys.modules) - before))\n"
        "sys.exit(code)\n"
    )
    p = run_python("-c", script, *argv)
    assert p.returncode == 0, p.stderr
    loaded = set(p.stdout.splitlines()[-1].split()[1:])
    assert needed <= loaded
    assert loaded & unloaded == set()


def test_cli_import_leaves_numpy_unloaded():
    # adebps has no runtime dependencies: neither the import nor the full verify, oracle included, loads numpy
    code = (
        "import sys, adebps.cli\n"
        "print('numpy' in sys.modules)\n"
        "code = adebps.cli.main(['verify'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    p = run_python("-c", code)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    assert lines[0] == "False" and "15/15 checks passed" in p.stdout
    assert lines[-1] == "0 False"
