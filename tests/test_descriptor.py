"""The descriptor records, their checks and the descriptor file format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adebps.catalog import e8_a5_descriptor, e8_a5_marking
from adebps.descriptor import (
    DescriptorError,
    GeometryDescriptor,
    Incidence,
    SCurve,
    SPoint,
    YPoint,
    format_descriptor,
    parse_descriptor,
    validate_descriptor,
)
from adebps.localize import bps_from_localization


@pytest.fixture(scope="module")
def m():
    return e8_a5_marking()


@pytest.fixture(scope="module")
def g():
    return e8_a5_descriptor()


class TestValidation:
    def test_builtin_clean(self, g, m):
        assert validate_descriptor(g, m) == []

    def test_bad_canonical_sum(self, g, m):
        broken = GeometryDescriptor(
            (YPoint("P1", (5, 1, -2)),) + g.y_points[1:], g.s_points, g.s_curves
        )
        with pytest.raises(DescriptorError, match="sum"):
            validate_descriptor(broken, m)

    def test_end_weights_must_cancel(self, g, m):
        pts = tuple(
            SPoint("Q1", (4, -3), "P1", (Incidence("E1", 4),)) if q.name == "Q1" else q
            for q in g.s_points
        )
        with pytest.raises(DescriptorError, match="do not cancel"):
            validate_descriptor(GeometryDescriptor(g.y_points, pts, g.s_curves), m)

    @pytest.mark.parametrize("incidences, fault", [
        ("E1:-3 F1:4 F2:4", "more than two divisors through a surface point"),
        ("E1:-3 F1:-3", r"incidence weight -3 not among tangent weights \(-3, 4\)"),  # one weight taken twice
        ("E1:5 F1:4", r"incidence weight 5 not among tangent weights \(-3, 4\)"),
    ])
    def test_surface_point_incidences(self, g, m, incidences, fault):
        incs = tuple(Incidence(label, int(w)) for label, w in (t.split(":") for t in incidences.split()))
        pts = tuple(q._replace(incidences=incs) if q.name == "Q1'" else q for q in g.s_points)
        with pytest.raises(DescriptorError, match=f"^Q1': {fault}$"):
            validate_descriptor(g._replace(s_points=pts), m)

    def test_unknown_label(self, g, m):
        pts = g.s_points + (SPoint("Qx", (1, 0), "P1", (Incidence("F9", 1),)),)
        with pytest.raises(DescriptorError):
            validate_descriptor(GeometryDescriptor(g.y_points, pts, g.s_curves), m)

    def test_soft_warning_for_odd_weight_sum(self, g, m):
        pts = tuple(
            SPoint("Q4", (3, -1), "P4", (Incidence("F4", 3),)) if q.name == "Q4" else q
            for q in g.s_points
        )
        warnings = validate_descriptor(GeometryDescriptor(g.y_points, pts, g.s_curves), m)
        assert any("Q4" in w for w in warnings)


_HEAD = "DESCRIPTOR-VERSION 1\nCANONICAL-WEIGHT -3\n"
_P1 = "Y-POINTS\nP1 1 1 1\n"
#: descriptor text -> the message of the one parse check it fails; the texts
#: after the first eight hold every header but the one at fault
_BAD_DESCRIPTORS = {
    "Y-POINTS\nP1 1 1 1\n": "^descriptor must start with DESCRIPTOR-VERSION$",
    "DESCRIPTOR-VERSION 2\n": "^unsupported descriptor version 2$",
    "DESCRIPTOR-VERSION 1\nCANONICAL-WEIGHT -3\nY-POINTS\nP1 1 1\n": "^line 4: Y point needs name and 3 weights$",
    "DESCRIPTOR-VERSION 1\nCANONICAL-WEIGHT -3\nP1 1 1 1\n": "^line 3: data outside of a section$",
    "DESCRIPTOR-VERSION 1\nY-POINTS\nP1 1 1 1\n": "^missing CANONICAL-WEIGHT header$",
    "DESCRIPTOR-VERSION 1\nCANONICAL-WEIGHT -3\nS-POINTS\nQ1 1 2 P1 F1\n": "^line 4: bad incidence 'F1'$",
    # a repeated header line must not silently replace the first one
    "DESCRIPTOR-VERSION 1\nCANONICAL-WEIGHT -3\nCANONICAL-WEIGHT -5\nY-POINTS\nP1 1 1 1\n":
        "^line 3: repeated CANONICAL-WEIGHT$",
    "DESCRIPTOR-VERSION 1\nDESCRIPTOR-VERSION 1\nCANONICAL-WEIGHT -3\nY-POINTS\nP1 1 1 1\n":
        "^line 2: repeated DESCRIPTOR-VERSION$",
    "DESCRIPTOR-VERSION 2\nCANONICAL-WEIGHT -3\n" + _P1: "^unsupported descriptor version 2$",
    "CANONICAL-WEIGHT -3\n" + _P1 + "DESCRIPTOR-VERSION 1\n": "^descriptor must start with DESCRIPTOR-VERSION$",
    "CANONICAL-WEIGHT -3\nY-POINTS\n": "^missing DESCRIPTOR-VERSION header$",
    _HEAD + "Y-POINTS\nP1 1 x 1\n": "^line 4: expected an integer, got 'x'$",
    # int() reads each of these as an integer
    _HEAD + "Y-POINTS\nP1 1 -\u0663 1\n": "^line 4: expected an integer, got '-\u0663'$",
    _HEAD + "Y-POINTS\nP1 +1 1 1\n": "^line 4: expected an integer, got '\\+1'$",
    _HEAD + _P1 + "S-POINTS\nQ1 1 2 P1 F1:1_0\n": "^line 6: expected an integer, got '1_0'$",
    "DESCRIPTOR-VERSION \u0661\n": "^line 1: expected an integer, got '\u0661'$",
    _HEAD + "Y-POINTS\nP1\n": "^line 4: Y point needs name and 3 weights$",  # a one-token row is no header
    _HEAD + "Y-POINTS\nP1 5\n": "^line 4: Y point needs name and 3 weights$",  # nor is a two-token row
    _HEAD + _P1 + "S-POINTS\nQ1 1 2\n": "^line 6: S point needs name, 2 weights, image$",
    _HEAD + _P1 + "S-POINTS\nQ1 1 2 P1 F1:\n": "^line 6: bad incidence 'F1:'$",
    _HEAD + _P1 + "S-CURVES\nE1 P1 1\n": "^line 6: S curve needs name, image, normal weight, self-intersection$",
    _HEAD + _P1 + "S-CURVES\nE1 P1 1 -2 :1\n": "^line 6: bad incidence ':1'$",
    _HEAD + "P1 1 1 1\n" + _P1: "^line 3: data outside of a section$",
    _HEAD + "Y-POINTS\nS-POINTS\nQ1 1 2 P1\n": "^no Y-POINTS given$",
    # a header or section keyword with the wrong number of fields is never a data row
    _HEAD + "Y-POINTS\nCANONICAL-WEIGHT 1 1 1\n": "^line 4: CANONICAL-WEIGHT takes one value, got 3$",
    _HEAD + "Y-POINTS\nS-POINTS 2\n": "^line 4: S-POINTS takes no value, got 1$",
    _HEAD + _P1 + "descriptor-version\n": "^line 5: DESCRIPTOR-VERSION takes one value, got 0$",
    "y-points P1 1 1 1\n": "^line 1: Y-POINTS takes no value, got 4$",
}


class TestDescriptorFormat:
    def test_roundtrip(self, g):
        assert parse_descriptor(format_descriptor(g)) == g

    def test_comments_and_blanks(self, g):
        text = "# header comment\n\n" + format_descriptor(g)
        assert parse_descriptor(text) == g

    def test_exact_text(self):
        # an empty section keeps its blank line and header; a row without
        # incidences has no trailing space
        g = GeometryDescriptor(
            (YPoint("P1", (1, -2, 7)), YPoint("P2", (0, 3, -4))),
            (),
            (SCurve("E1", "P1", 2, -2, ()), SCurve("E2", "P2", -1, -2, (Incidence("F1", 3), Incidence("E1", -1)))),
            -6,
        )
        text = ("DESCRIPTOR-VERSION 1\nCANONICAL-WEIGHT -6\n\nY-POINTS\nP1 1 -2 7\nP2 0 3 -4\n\nS-POINTS\n\n"
                "S-CURVES\nE1 P1 2 -2\nE2 P2 -1 -2 F1:3 E1:-1\n")
        assert format_descriptor(g) == text
        assert parse_descriptor(text) == g

    @pytest.mark.parametrize("text", list(_BAD_DESCRIPTORS))
    def test_bad_inputs(self, text):
        with pytest.raises(DescriptorError, match=_BAD_DESCRIPTORS[text]):
            parse_descriptor(text)

    def test_custom_descriptor_runs(self, m, g, tmp_path):
        # a descriptor loaded from disk behaves exactly like the built-in one
        path = tmp_path / "e8.desc"
        path.write_text(format_descriptor(g), encoding="utf-8")
        loaded = parse_descriptor(path.read_text(encoding="utf-8"))
        assert bps_from_localization((2, 4, 3, 2), m, loaded) == Fraction(2)


# -- parser properties ------------------------------------------------------------

_NAMES = st.builds(str.__add__, st.sampled_from("PQEFxy"), st.text("PQEFxy0123'", max_size=3))
_WEIGHTS = st.integers(-20, 20)


def _tuples(elements, **sizes):
    return st.lists(elements, **sizes).map(tuple)


_INCIDENCES = _tuples(st.builds(Incidence, _NAMES, _WEIGHTS), max_size=3)
_DESCRIPTORS = st.builds(
    GeometryDescriptor,
    _tuples(st.builds(YPoint, _NAMES, st.tuples(_WEIGHTS, _WEIGHTS, _WEIGHTS)), min_size=1, max_size=4),
    _tuples(st.builds(SPoint, _NAMES, st.tuples(_WEIGHTS, _WEIGHTS), _NAMES, _INCIDENCES), max_size=4),
    _tuples(st.builds(SCurve, _NAMES, _NAMES, _WEIGHTS, _WEIGHTS, _INCIDENCES), max_size=3),
    _WEIGHTS,
)
_DESCRIPTOR_TOKENS = st.sampled_from([
    "DESCRIPTOR-VERSION", "CANONICAL-WEIGHT", "Y-POINTS", "S-POINTS", "S-CURVES", "y-points",
    "1", "2", "-3", "0", "x", "P1", "Q1", "F1:2", "E1:-1", "F2:", ":3", "F1:x", "#", "#c",
])


@st.composite
def _descriptor_texts(draw):
    """A valid descriptor file with up to three lines dropped, repeated or replaced by junk."""
    lines = format_descriptor(draw(_DESCRIPTORS)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "junk"]))
        if edit == "junk":
            lines[i] = " ".join(draw(st.lists(_DESCRIPTOR_TOKENS, max_size=7)))
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            del lines[i]
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=200), _descriptor_texts()))
def test_random_descriptor_text_raises_only_descriptor_errors(text):
    try:
        g = parse_descriptor(text)
    except DescriptorError:
        return
    assert parse_descriptor(format_descriptor(g)) == g


@settings(max_examples=100, deadline=None)
@given(_DESCRIPTORS)
def test_descriptor_format_parse_roundtrip(g):
    assert parse_descriptor(format_descriptor(g)) == g
