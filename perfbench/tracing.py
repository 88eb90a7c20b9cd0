"""Spans around calls into each adebps module, recorded from outside.

A wrapped function is replaced in every ``adebps`` module that holds it
by name (``cli``, ``verify``, ``localize`` and ``folding`` all import
with ``from .x import f``, so patching only the defining module would
miss those calls).  A method is replaced on its class.  A name that no
longer exists is reported as missing; the run goes on.

Each span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span or -1.  Spans stay in memory until the run writes
them out.  Very hot functions get a call counter instead of a span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

#: (metric name, module, attribute path) wrapped with a span
SPANNED = (
    ("symring.RatFn.new", "symring", "RatFn.__init__"),
    ("symring.to_polynomial", "symring", "to_polynomial"),
    ("symring.euler_class", "symring", "euler_class"),
    ("localize.total_chi", "localize", "total_chi"),
    ("localize.chern_character_at", "localize", "chern_character_at"),
    ("localize.point_contribution", "localize", "point_contribution"),
    ("localize.curve_contribution", "localize", "curve_contribution"),
    ("localize.ext_decompose", "localize", "ext_decompose"),
    ("localize.bps_from_localization", "localize", "bps_from_localization"),
    ("localize.parse_descriptor", "localize", "parse_descriptor"),
    ("localize.validate_descriptor", "localize", "validate_descriptor"),
    ("rootsys.enumerate_positive_roots", "rootsys", "enumerate_positive_roots"),
    ("rootsys.enumerate_positive_roots_bruteforce", "rootsys", "enumerate_positive_roots_bruteforce"),
    ("folding.bps_table", "folding", "bps_table"),
    ("folding.lift", "folding", "lift"),
    ("folding.project", "folding", "project"),
    ("catalog.load_case", "catalog", "load_case"),
    ("verify.run_checks", "verify", "run_checks"),
    ("cli.main", "cli", "main"),
)
#: (metric name, module, attribute path) wrapped with a call counter only
COUNTED = (
    ("rootsys.cartan_pairing", "rootsys", "cartan_pairing"),
)
#: computed from the arguments of each oracle call: sum of (bound+1)^rank
ORACLE = "rootsys.enumerate_positive_roots_bruteforce"
ORACLE_VECTORS = "rootsys.oracle_vectors"
#: names that carry a count but no time
COUNT_ONLY = {name for name, _, _ in COUNTED} | {ORACLE_VECTORS}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _oracle(self, fn):
        sig = inspect.signature(fn)
        counts, missing = self.counts, self.missing

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts[ORACLE_VECTORS] += (bound.arguments["bound"] + 1) ** bound.arguments["d"].rank
            except (TypeError, KeyError, AttributeError):
                if ORACLE_VECTORS not in missing:
                    missing.append(ORACLE_VECTORS)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every loaded adebps module."""
        mods = [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == "adebps" or key.startswith("adebps."))]
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for name, module, path in table:
                owner = sys.modules.get(f"adebps.{module}")
                *outer, attr = path.split(".")
                try:
                    for part in outer:
                        owner = getattr(owner, part)
                    orig = getattr(owner, attr)
                except AttributeError:
                    self.missing.append(name)
                    continue
                wrapped = self._spanned(name, orig) if kind == "span" else self._counted(name, orig)
                if name == ORACLE:
                    wrapped = self._oracle(wrapped)
                if outer:  # a method: replace it on its class
                    self._set(owner, attr, wrapped)
                    continue
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds."""
        return summarize(self.spans, self.counts)


def summarize(spans, counts) -> dict[str, dict[str, float]]:
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - inner
    for name, n in counts.items():
        out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["calls"] += n
    return out


def merge(into: dict, other: dict) -> None:
    for name, row in other.items():
        acc = into.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            acc[key] += value
