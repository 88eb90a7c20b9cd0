"""The package namespace: each public name loads its module on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adebps

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys, adebps\n"
        "print(*sorted(m for m in sys.modules if m.startswith('adebps')))\n"
        "adebps.lift\n"
        "print(*sorted(m for m in sys.modules if m.startswith('adebps')), 'lift' in vars(adebps))\n"
    )
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stderr
    # the first use of a name loads its module and its imports, and keeps the name
    assert p.stdout.splitlines() == ["adebps", "adebps adebps.folding adebps.rootsys True"]


def test_every_export_is_its_modules_object():
    assert len(set(adebps.__all__)) == len(adebps.__all__) == 42
    for name in adebps.__all__:
        module = importlib.import_module(f"adebps.{adebps._MODULE_OF[name]}")
        assert getattr(adebps, name) is getattr(module, name), name


def test_dir_lists_every_export():
    assert set(adebps.__all__) | {"__version__"} <= set(dir(adebps))


def test_star_import_binds_every_export():
    ns = {}
    exec("from adebps import *", ns)
    assert {name: ns[name] for name in adebps.__all__} == {name: getattr(adebps, name) for name in adebps.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'adebps' has no attribute 'no_such_name'"):
        adebps.no_such_name
    assert not hasattr(adebps, "catalog_cases")
    with pytest.raises(ImportError):
        exec("from adebps import no_such_name", {})
