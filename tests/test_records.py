"""The thirteen result and data records are named tuples.

Each is immutable and equals the plain tuple of its fields; the two with
constructor checks, ``DynkinDiagram`` and ``Marking``, run them on every
way of building one: the constructor, ``_make``, ``_replace``, copies and
pickles.
"""

import copy
import pickle

import pytest

from adebps.catalog import e8_a5_descriptor, e8_a5_marking
from adebps.descriptor import GeometryDescriptor
from adebps.folding import Marking, bps_table
from adebps.localize import localize_class
from adebps.rootsys import DynkinDiagram, build_diagram
from adebps.verify import CheckResult


#: the records' type names, in the order the ``records`` fixture builds them
RECORD_TYPES = [
    "DynkinDiagram", "Marking", "BPSRecord", "LiftedDivisor", "EulerClass", "Incidence", "YPoint",
    "SPoint", "SCurve", "GeometryDescriptor", "ExtDecomposition", "LocalizationResult", "CheckResult",
]


@pytest.fixture(scope="module")
def records():
    # built by the first test that reads them, so a fault in the pipeline fails tests, not collection
    m, g = e8_a5_marking(), e8_a5_descriptor()
    res = localize_class((3, 5, 4, 3), m, g)
    return [
        m.diagram, m, bps_table(m)[0], res.lift, res.euler_ext1, g.s_curves[0].incidences[0],
        g.y_points[0], g.s_points[0], g.s_curves[0], g, res.ext, res, CheckResult("golden", True),
    ]


@pytest.fixture(params=RECORD_TYPES)
def record(request, records):
    return records[RECORD_TYPES.index(request.param)]


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


def test_thirteen_record_types(records):
    assert len({type(r) for r in records}) == 13
    assert [type(r).__name__ for r in records] == RECORD_TYPES


def test_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_record_equals_the_tuple_of_its_fields(record):
    fields = tuple(getattr(record, name) for name in record._fields)
    assert record == fields and tuple(record) == fields


@pytest.mark.parametrize("round_trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_round_trips_keep_checked_records(round_trip):
    m, g = e8_a5_marking(), e8_a5_descriptor()
    for d in (m.diagram, build_diagram("D", 6), build_diagram("A", 1)):
        back = round_trip(d)
        assert type(back) is DynkinDiagram and back == d
        assert [back.neighbors(i) for i in range(d.rank)] == [d.neighbors(i) for i in range(d.rank)]
    back = round_trip(m)
    assert type(back) is Marking and back == m and back.black_order == m.black_order
    back = round_trip(g)
    assert type(back) is GeometryDescriptor and back == g and hash(back) == hash(g)


def test_edges_are_read_only_and_rebuilt_by_every_round_trip():
    d, m = build_diagram("A", 3), e8_a5_marking()
    with pytest.raises(AttributeError):
        d.edges = ((0, 2),)
    # what the constructor derives is not copied: each round trip derives it again
    d._edges, d._adj = ((0, 2),), ((2,), (), (0,))
    m._lift_plan = None
    for round_trip in ROUND_TRIPS.values():
        back = round_trip(d)
        assert back.edges == ((0, 1), (1, 2)) and [back.neighbors(i) for i in range(3)] == [(1,), (0, 2), (1,)]
        assert round_trip(m)._lift_plan == e8_a5_marking()._lift_plan is not None


def test_every_construction_path_runs_the_checks():
    m = e8_a5_marking()
    d = m.diagram
    with pytest.raises(ValueError, match="black nodes out of range"):
        m._replace(black=frozenset({99}))
    with pytest.raises(ValueError, match="black and white overlap"):
        Marking._make((d, m.black | {m.white_order[0]}, m.white_order))
    # a diagram is its (kind, rank), so each path derives the edges of the new pair
    for built, want in ((d._replace(kind="A"), build_diagram("A", 8)),
                        (DynkinDiagram._make(("D", 8)), build_diagram("D", 8))):
        assert built == want and built.edges == want.edges
        assert [built.neighbors(i) for i in range(8)] == [want.neighbors(i) for i in range(8)]
    with pytest.raises(ValueError, match="type E needs rank 6, 7 or 8"):
        d._replace(rank=9)
    with pytest.raises(ValueError, match="unknown kind 'Q'"):
        DynkinDiagram._make(("Q", 8))
    # a record forged past its constructor is checked again when copied or unpickled
    for forged, message in (
        (tuple.__new__(Marking, (d, frozenset({99}), m.white_order)), "black nodes out of range"),
        (tuple.__new__(DynkinDiagram, ("D", 3)), "type D needs rank >= 4"),
    ):
        for round_trip in ROUND_TRIPS.values():
            with pytest.raises(ValueError, match=message):
                round_trip(forged)
