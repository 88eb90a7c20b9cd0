"""Shared definitions for the adebps benchmark: paths, inputs, operations, digests.

Every call into the program goes through names exported by
``adebps/__init__.py`` or through the ``adebps`` command line, so the
benchmark keeps working when modules are refactored behind that surface.
The ``adebps`` package is imported lazily: the orchestrator of the
child-process workloads never loads it outside the traced run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests"

CASE = "e8-a5"
#: the built-in marking of the e8-a5 case, written out as a marking file
MARKING_TEXT = "kind E\nrank 8\nblack n1 n3 n5 n7\nwhite n2 n4 n6 n8\n"

#: loc-sweep draws its seeded sample from the box [0, BOX_HI]^4
BOX_HI = 12
#: every nonzero class in [0, SMALL_HI]^4 is localized on each pass
SMALL_HI = 3
#: number of seeded classes from the large box per pass
SAMPLE_SIZE = 96

#: roots-ladder diagrams: cold closure plus folding on each, once per process
LADDER = (("A", 24), ("A", 28), ("A", 32), ("A", 36), ("A", 40), ("A", 44),
          ("D", 24), ("D", 28), ("D", 32), ("D", 36), ("D", 40))
#: roots-ladder diagrams scanned by the brute-force oracle, 7^7 vectors each
ORACLE_RUNGS = (("A", 7), ("D", 7), ("E", 7))

DEFAULT_SEED = 1


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop; no adebps code runs in it.

    Timed next to every in-process operation.  On a shared 2-vCPU host,
    speed swings by 1.5-2x for seconds to minutes at a time; the ratio of
    an operation's time to this loop's time measured beside it stayed
    within about 2% while raw times doubled.
    """
    from fractions import Fraction

    t0 = time.perf_counter()
    acc: dict[int, Fraction] = {}
    for i in range(160):
        for j in range(20):
            k = (i * 7 + j) % 37
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i + 1, j + 1)
    return time.perf_counter() - t0


class SourceMissing(RuntimeError):
    """The checkout holds no program to measure."""


def require_source() -> None:
    if not (SRC / "adebps" / "__init__.py").is_file():
        raise SourceMissing(f"no adebps package under {SRC}")


def import_adebps():
    """Import the package from this checkout, never from an installed copy."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import adebps
    import adebps.cli  # noqa: F401  (the command line is part of every set-up)

    if Path(adebps.__file__).resolve().parent != (SRC / "adebps").resolve():
        raise SourceMissing(f"imported adebps from {adebps.__file__}, not from {SRC}")
    return adebps


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def sha(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def load_json(name: str) -> dict:
    with open(DIGESTS / name, encoding="utf-8") as fh:
        return json.load(fh)


# -- set-up ------------------------------------------------------------------


def setup_case(A):
    """Case load, descriptor format -> parse -> validate, marking parse.

    Returns the marking and descriptor; the parsed copies must equal the
    built-in ones.
    """
    m, g = A.load_case(CASE)
    g2 = A.parse_descriptor(A.format_descriptor(g))
    A.validate_descriptor(g2, m)
    m2 = A.parse_marking(MARKING_TEXT)
    if g2 != g or m2 != m:
        raise ValueError("parsed case differs from the built-in case")
    return m, g


# -- loc-sweep -----------------------------------------------------------------


def box_index(cls: tuple[int, ...]) -> int:
    idx = 0
    for c in cls:
        idx = idx * (BOX_HI + 1) + c
    return idx


def all_box_classes(hi: int):
    from itertools import product

    return [c for c in product(range(hi + 1), repeat=4) if any(c)]


def loc_classes(seed: int, table_classes: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The 36 table classes, all of [0,3]^4, then a seeded sample of [0,12]^4."""
    import random

    fixed = [tuple(c) for c in table_classes]
    small = [c for c in all_box_classes(SMALL_HI) if c not in set(fixed)]
    taken = set(fixed) | set(small)
    pool = [c for c in all_box_classes(BOX_HI) if c not in taken]
    sample = random.Random(seed).sample(pool, SAMPLE_SIZE)
    return fixed + small + sample


def localize_one(A, m, g, cls: tuple[int, ...]) -> tuple[str, object]:
    """lift -> total_chi -> ext_decompose -> Euler classes -> n.

    The Ext split is defined only when the weight-0 coefficient of chi is 1
    (the unit part); n only for root classes.  Returns the canonical output
    text and n (None for a non-root class).
    """
    lft = A.lift(cls, m)
    chi = A.total_chi(lft, g, m)
    parts = [f"chi={chi}"]
    n = None
    if chi.coefficient(0) == 1:
        dec = A.ext_decompose(chi, serre_weight=-g.canonical_weight)
        e1, e2 = A.euler_class(dec.ext1), A.euler_class(dec.ext2)
        parts += [f"ext1={dec.ext1}", f"ext2={dec.ext2}", f"e1={e1}", f"e2={e2}"]
        if lft.self_pairing == -2:
            n = A.bps_from_localization(cls, m, g)
            parts.append(f"n={n}")
    return ";".join(parts), n


def box_digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()[:4]


# -- roots-ladder ----------------------------------------------------------------


def bipartition_black(d, parity: int) -> frozenset[int]:
    """One colour class of the tree's 2-colouring: an alternating marking."""
    colour = {0: 0}
    stack = [0]
    while stack:
        i = stack.pop()
        for a, b in d.edges:
            j = b if a == i else a if b == i else None
            if j is not None and j not in colour:
                colour[j] = 1 - colour[i]
                stack.append(j)
    return frozenset(i for i, c in colour.items() if c == parity)


def ladder_spec(seed: int) -> list[tuple[str, str, int, int]]:
    """(op, kind, rank, black colour) in seeded order, op "fold" or "oracle"."""
    import random

    rng = random.Random(seed)
    spec = [("fold", kind, rank, rng.randrange(2)) for kind, rank in LADDER]
    spec += [("oracle", kind, rank, 0) for kind, rank in ORACLE_RUNGS]
    rng.shuffle(spec)
    return spec


def ladder_op(A, op: str, kind: str, rank: int, parity: int):
    """Returns (roots, folded table or None).

    fold: cold closure, then the folded table on an alternating marking.
    oracle: the brute-force scan of every small coefficient vector.
    """
    d = A.build_diagram(kind, rank)
    if op == "oracle":
        return A.enumerate_positive_roots_bruteforce(d), None
    roots = A.enumerate_positive_roots(d)
    black = bipartition_black(d, parity)
    white = tuple(i for i in range(rank) if i not in black)
    table = A.bps_table(A.Marking(d, black, white))
    return roots, table


def roots_text(roots) -> str:
    return ";".join(",".join(map(str, r)) for r in roots)


def table_text(table) -> str:
    return ";".join(f"{','.join(map(str, r.cls))}:{r.fiber_count}:{r.invariant}" for r in table)


def closed_form_count(kind: str, rank: int) -> int:
    if kind == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    return rank * (rank + 1) // 2 if kind == "A" else rank * (rank - 1)


# -- cli-oneshot -----------------------------------------------------------------


#: cli-oneshot commands other than localize: (digest key, argv)
FIXED_COMMANDS = (
    ("roots E 8", ["roots", "E", "8"]),
    ("table plain", ["table", "--case", CASE]),
    ("table csv", ["table", "--case", CASE, "--format", "csv"]),
    ("table json", ["table", "--case", CASE, "--format", "json"]),
    ("dump-descriptor", ["dump-descriptor", "--case", CASE]),
    ("verify --quick", ["verify", "--case", CASE, "--quick"]),
)


def localize_command(cls: str, fmt: str, source: list[str]) -> tuple[str, list[str]]:
    return f"localize {cls} {fmt}", ["localize", cls, *source, *(["--format", fmt] if fmt != "plain" else [])]


def cli_script(seed: int, table_classes, marking_file: str, descriptor_file: str):
    """Short commands, each run in a fresh interpreter: (digest key, argv).

    Four seeded table classes are localized, two from the built-in case
    and two from marking and descriptor files, in plain and json.
    """
    import random

    rng = random.Random(seed)
    picks = [",".join(map(str, c)) for c in rng.sample([tuple(c) for c in table_classes], 4)]
    case = ["--case", CASE]
    files = ["--marking", marking_file, "--descriptor", descriptor_file]
    localize = [localize_command(picks[0], "plain", case), localize_command(picks[1], "json", case),
                localize_command(picks[2], "plain", files), localize_command(picks[3], "json", files)]
    return [*FIXED_COMMANDS[:4], *localize, *FIXED_COMMANDS[4:]]
