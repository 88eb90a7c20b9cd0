"""Built-in flagship case: the E8 diagram with alternating blackening.

This is the geometry of the threefold resolution attached to the
icosahedral rotation group, whose surface resolution carries the E8
curve configuration.  Every odd node is contracted; the four white
curves F1..F4 are n2, n4, n6, n8.  The blackening is pinned down by a
brute-force uniqueness check (see verify.run_checks): it is the only
4-node choice that is pairwise non-adjacent, drops exactly four roots,
and folds the highest root to (3, 5, 4, 3).

The fixed-point data lists five threefold points P1..P4 and P (the
triple point where F2, F3, F4 meet), seven isolated surface points and
the single pointwise-fixed curve E3 lying over P.  Tangent weights are
forced by the requirement that all restriction data reproduce the known
character totals; the verification suite checks each one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .folding import Marking
from .rootsys import build_diagram

if TYPE_CHECKING:
    from .localize import GeometryDescriptor


def e8_a5_marking() -> Marking:
    return Marking(
        diagram=build_diagram("E", 8),
        black=frozenset({0, 2, 4, 6}),  # n1, n3, n5, n7
        white_order=(1, 3, 5, 7),       # n2, n4, n6, n8 -> F1..F4
    )


def e8_a5_descriptor() -> GeometryDescriptor:
    # imported here, so that a marking alone never loads the localization engine
    from .localize import GeometryDescriptor, Incidence, SCurve, SPoint, YPoint

    return GeometryDescriptor(
        y_points=(
            YPoint("P1", (5, 1, -3)),
            YPoint("P2", (1, -1, 3)),
            YPoint("P3", (1, -1, 3)),
            YPoint("P4", (2, 2, -1)),
            YPoint("P", (1, 1, 1)),
        ),
        s_points=(
            # free end of E1 and the crossing E1/F1, both over P1
            SPoint("Q1", (5, -4), "P1", (Incidence("E1", 5),)),
            SPoint("Q1'", (-3, 4), "P1", (Incidence("E1", -3), Incidence("F1", 4))),
            # crossings F1/E2 and E2/F2 over P2
            SPoint("Q2", (-2, 3), "P2", (Incidence("F1", -2), Incidence("E2", 3))),
            SPoint("Q2'", (2, -1), "P2", (Incidence("E2", -1), Incidence("F2", 2))),
            # crossing F3/E4 and the free end of E4 over P3
            SPoint("Q3", (2, -1), "P3", (Incidence("F3", 2), Incidence("E4", -1))),
            SPoint("Q3'", (-2, 3), "P3", (Incidence("E4", 3),)),
            # free end of F4 over P4
            SPoint("Q4", (2, -1), "P4", (Incidence("F4", 2),)),
        ),
        s_curves=(
            # the branch curve, pointwise fixed, crossed by F2, F3, F4
            SCurve("E3", "P", 1, -2, (Incidence("F2", 1), Incidence("F3", 1), Incidence("F4", 1))),
        ),
        canonical_weight=-3,
    )


CASES = {"e8-a5": (e8_a5_marking, e8_a5_descriptor)}


def _case(name: str):
    try:
        return CASES[name]
    except KeyError:
        raise ValueError(f"unknown case {name!r}; known cases: {', '.join(sorted(CASES))}") from None


def load_marking(name: str) -> Marking:
    """The marking of a built-in case, without building its descriptor."""
    return _case(name)[0]()


def load_case(name: str) -> tuple[Marking, GeometryDescriptor]:
    mk, ds = _case(name)
    return mk(), ds()
