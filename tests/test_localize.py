import pickle
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adebps.catalog import e8_a5_descriptor, e8_a5_marking
from adebps.folding import LiftedDivisor, Marking, bps_table, divisor_labels, lift
from adebps.descriptor import (
    DescriptorError,
    GeometryDescriptor,
    Incidence,
    SCurve,
    SPoint,
    YPoint,
    _checked_components,
    format_descriptor,
    parse_descriptor,
    validate_descriptor,
)
from adebps.localize import (
    PointRecord,
    _certified_sum,
    _Point,
    _point_exponents,
    _point_record,
    _point_records,
    _point_sums,
    _curve_residue,
    _resolve,
    bps_from_localization,
    ext_decompose,
    localize_class,
    total_chi,
    tuple_getter,
)
from adebps.rootsys import build_diagram
from adebps.symring import (
    LaurentPoly,
    Quotient,
    VirtualCharacter,
    divide_with_remainder,
    euler_class,
    expfactor,
    quotient_sum,
    times_expfactors,
)
from adebps.verify import (
    GOLDEN_CH,
    GOLDEN_CONTRIBUTIONS,
    GOLDEN_POINT_WEIGHTS,
    GOLDEN_SUMMANDS,
    REFERENCE_CLASSES,
)


@pytest.fixture(scope="module")
def m():
    return e8_a5_marking()


@pytest.fixture(scope="module")
def g():
    return e8_a5_descriptor()


@pytest.fixture(scope="module")
def top(m):
    return lift((3, 5, 4, 3), m)


#: A3 with the middle node black: F1 and F2 are the end nodes, E1 the middle one
A3 = Marking(build_diagram("A", 3), frozenset({1}), (0, 2))


def _a3_descriptors():
    """Two A3 descriptors in which E1 has normal weight 3.

    In the first, F1 and F2 cross E1 at weight 2, which is not its normal
    weight, so the first is rejected; in the second nothing crosses E1,
    and F1 and F2 end at two more surface points instead.
    """
    y_points = (YPoint("P", (1, 1, 1)), YPoint("P1", (5, 1, -3)), YPoint("P2", (2, 2, -1)))
    ends = (SPoint("Q1", (3, -2), "P1", (Incidence("F1", 3),)),
            SPoint("Q2", (3, -2), "P2", (Incidence("F2", 3),)))
    crossings = (Incidence("F1", 2), Incidence("F2", 2))
    far_ends = (SPoint("Q1'", (-1, 2), "P", (Incidence("F1", -1),)),
                SPoint("Q2'", (-1, 2), "P", (Incidence("F2", -1),)))
    return (
        GeometryDescriptor(y_points, ends, (SCurve("E1", "P", 3, -2, crossings),)),
        GeometryDescriptor(y_points, ends + far_ends, (SCurve("E1", "P", 3, -2, ()),)),
    )


def s_point(g, name):
    return next(q for q in g.s_points if q.name == name)


def _over(components, name):
    """The surface points or fixed curves whose image is the threefold point ``name``, in descriptor order."""
    return [x for x in components if x.image == name]


def _weights(lft, g, m) -> dict:
    """w_q by surface point name and (w_e, d_e) by fixed curve name, read from the point records."""
    out = {}
    for name, r in _point_records(lft, g, m).items():
        out.update((q.name, w) for q, (w, _) in zip(_over(g.s_points, name), r.surface, strict=True))
        out.update((e.name, wd) for e, wd in zip(_over(g.s_curves, name), r.curves, strict=True))
    return out


def _summands(lft, g, m) -> dict:
    """The residue summand of each surface point, image prefactor included, by name, from the point records."""
    return {q.name: summand for name, r in _point_records(lft, g, m).items()
            for q, (_, summand) in zip(_over(g.s_points, name), r.surface, strict=True)}


def common_denominator(terms) -> dict[int, int]:
    """The reference common denominator: the largest exponent of each factor 1 - mu^k over the terms."""
    den: dict[int, int] = {}
    for t in terms:
        for k, e in t.den.items():
            if e > den.get(k, 0):
                den[k] = e
    return den


class TestLineBundleData:
    def test_longest_root_point_weights(self, g, m, top):
        assert _weights(top, g, m) == {**GOLDEN_POINT_WEIGHTS, "E3": (-6, 0)}

    def test_zero_divisor(self, g, m):
        zero = LiftedDivisor((0,) * 8, (), (), 0)
        assert _weights(zero, g, m) == {**{q.name: 0 for q in g.s_points}, "E3": (0, 0)}

    def test_longest_root_on_curve(self, g, m, top):
        assert _weights(top, g, m)["E3"] == (-6, 0)
        # the curve's weight is read from its normal weight, which every
        # crossing weight must equal: crossings at another weight are rejected
        crossed, bare = _a3_descriptors()
        assert validate_descriptor(bare, A3) == []
        assert _weights(lift((1, 1), A3), bare, A3)["E1"] == (-3, 0)
        for call in (lambda: validate_descriptor(crossed, A3),
                     lambda: _point_records(lift((1, 1), A3), crossed, A3)):
            with pytest.raises(DescriptorError, match=r"inconsistent crossing weights on 'E1': \[2, 3\]"):
                call()
        # on e8-a5, a crossing weight of 2, or no crossing at all, leaves the
        # divisors that cross E3 with inconsistent ends
        e = g.s_curves[0]
        for curve, fault in (
            (e._replace(incidences=tuple(Incidence(i.divisor, 2) for i in e.incidences)),
             r"divisor F2: end weights \[-1, 2\] do not cancel"),
            (e._replace(normal_weight=3, incidences=()), "divisor F2 has 1 fixed ends, expected 2"),
        ):
            broken = GeometryDescriptor(g.y_points, g.s_points, (curve,))
            with pytest.raises(DescriptorError, match=fault):
                _point_records(top, broken, m)

    def test_degree_one_case(self, g, m):
        assert _weights(lift((1, 2, 2, 1), m), g, m)["E3"] == (-3, 1)

    def test_inconsistent_crossings_detected(self, g, m, top):
        # F4 crosses E3 at weight 2 and ends at Q4 with weight -2: every
        # divisor's ends cancel, but the crossings of E3 disagree
        e3 = SCurve("E3", "P", 1, -2, (Incidence("F2", 1), Incidence("F3", 1), Incidence("F4", 2)))
        q4 = SPoint("Q4", (3, -2), "P4", (Incidence("F4", 3),))
        broken = GeometryDescriptor(g.y_points, g.s_points[:-1] + (q4,), (e3,))
        with pytest.raises(DescriptorError, match=r"inconsistent crossing weights on 'E3': \[1, 2\]"):
            _point_records(top, broken, m)
        # E3 has multiplicity 0 in the lift of (1,0,0,0): the crossings still disagree
        assert lift((1, 0, 0, 0), m).full[4] == 0
        with pytest.raises(DescriptorError, match="inconsistent"):
            total_chi(lift((1, 0, 0, 0), m), broken, m)
        # with F3 crossing at 2 and F4 not crossing at all, the end check fails first
        bad = SCurve("E3", "P", 1, -2, (Incidence("F2", 1), Incidence("F3", 2)))
        with pytest.raises(DescriptorError, match=r"divisor F3: end weights \[-1, 2\] do not cancel"):
            total_chi(top, GeometryDescriptor(g.y_points, g.s_points, (bad,)), m)

    def test_stray_image_raises(self, g, m):
        # a component whose image names no threefold point must not be dropped
        # (a curve's image is checked before its normal weight)
        stray_point = SPoint("Qx", (2, -1), "P9", ())
        stray_curve = g.s_curves[0]._replace(image="Q")
        lft = lift((1, 2, 2, 1), m)
        for broken in (
            GeometryDescriptor(g.y_points, g.s_points + (stray_point,), g.s_curves),
            GeometryDescriptor(g.y_points, g.s_points, (stray_curve,)),
            GeometryDescriptor(g.y_points, g.s_points, (stray_curve._replace(normal_weight=0),)),
        ):
            with pytest.raises(DescriptorError, match="unknown fixed point"):
                validate_descriptor(broken, m)
            with pytest.raises(DescriptorError, match="unknown fixed point"):
                total_chi(lft, broken, m)
            with pytest.raises(DescriptorError, match="unknown fixed point"):
                localize_class((1, 2, 2, 1), m, broken)
            with pytest.raises(DescriptorError, match="unknown fixed point"):
                _point_records(lft, broken, m)


class TestPointContributions:
    def test_golden_summands(self, g, m, top):
        assert _summands(top, g, m) == GOLDEN_SUMMANDS

    def test_degenerate_weight_rejected(self, g, m, top):
        stray = SPoint("Qx", (0, 2), "P1", ())
        broken = GeometryDescriptor(g.y_points, g.s_points + (stray,), g.s_curves)
        with pytest.raises(DescriptorError, match="tangent weight 0"):
            _point_records(top, broken, m)


class TestCurveContribution:
    # P sees only the fixed curve, so its character is the curve summand
    def test_longest_root(self, g, m, top):
        got = _point_records(top, g, m)["P"].ch
        assert got == LaurentPoly({-8: 1, -6: -1, -2: -1, 0: 1})

    def test_zero_divisor(self, g, m):
        zero = LiftedDivisor((0,) * 8, (), (), 0)
        assert _point_records(zero, g, m)["P"].ch == 0

    @pytest.mark.parametrize("s", [-3, -1, 0, 2])
    def test_self_intersection_is_fixed_by_the_marking(self, g, m, top, s):
        # E3 is a node of E8, so a (-2)-curve; any other value is rejected
        # everywhere instead of making the Ext split fail on most classes
        bent = g._replace(s_curves=(g.s_curves[0]._replace(self_intersection=s),))
        for call in (lambda: validate_descriptor(bent, m), lambda: total_chi(top, bent, m),
                     lambda: localize_class((1, 0, 0, 0), m, bent),
                     lambda: _point_records(top, bent, m)):
            with pytest.raises(DescriptorError, match=f"^curve 'E3' has self-intersection {s}, not -2$"):
                call()

    def test_zero_normal_weight_rejected(self, g, m, top):
        bad = SCurve("E3", "P", 0, -2, ())
        broken = GeometryDescriptor(g.y_points, g.s_points, (bad,))
        with pytest.raises(DescriptorError, match="normal weight 0"):
            _point_records(top, broken, m)


class TestCharacters:
    def test_golden_characters(self, g, m, top):
        for p in g.y_points:
            assert _point_records(top, g, m)[p.name].ch == GOLDEN_CH[p.name]
        assert {name: r.ch for name, r in localize_class((3, 5, 4, 3), m, g).points.items()} == GOLDEN_CH

    def test_golden_point_totals(self, g, m, top):
        for p in g.y_points:
            ch = _point_records(top, g, m)[p.name].ch
            pref = prod((expfactor(-w) for w in p.weights), start=LaurentPoly({0: 1}))
            assert ch.dual() * ch == GOLDEN_CONTRIBUTIONS[p.name] * pref
        points = localize_class((3, 5, 4, 3), m, g).points
        assert {name: r.contribution for name, r in points.items()} == GOLDEN_CONTRIBUTIONS

    def test_reference_totals(self, g, m):
        for cls, total, _, _, _ in REFERENCE_CLASSES:
            assert total_chi(lift(cls, m), g, m) == VirtualCharacter(total)

    def test_cancelled_denominators(self, g, m):
        # every Euler factor 1 - mu^w cancels a power of 1 - mu^|w| that the
        # denominator holds, so chi needs a common denominator of degree 21
        r = localize_class((3, 5, 4, 3), m, g)
        assert {p: u.contribution.den for p, u in r.points.items()} == {
            "P1": {3: 1, 4: 2, 5: 1},
            "P2": {2: 2, 3: 1},
            "P3": {2: 2, 3: 1},
            "P4": {1: 1},
            "P": {1: 1},
        }
        assert quotient_sum(u.contribution for u in r.points.values()).den == {1: 1, 2: 2, 3: 1, 4: 2, 5: 1}
        assert r.points["P4"].ch.den == {} and r.points["P"].ch.den == {}

    def test_symmetric_points_for_longest_root(self, g, m, top):
        # all restriction weights of the longest-root lift equal -6, so the
        # two middle points see identical data; for general classes the
        # characters differ (the class may not even reach both points)
        records = _point_records(top, g, m)
        assert records["P2"].ch == records["P3"].ch
        small = lift((0, 1, 0, 0), m)
        assert _point_records(small, g, m)["P3"].ch == 0

    def test_totals_vanish_at_one_with_unit_ends(self, g, m):
        for rec in bps_table(m):
            chi = total_chi(lift(rec.cls, m), g, m)
            assert chi.evaluate(Fraction(1)) == 0
            assert chi.coefficient(0) == 1
            assert chi.coefficient(3) == -1


class TestExtDecompose:
    def test_rigid_class(self):
        dec = ext_decompose(VirtualCharacter({0: 1, 3: -1}), serre_weight=3)
        assert dec.ext1 == VirtualCharacter() and dec.ext2 == VirtualCharacter()

    def test_half_class(self):
        dec = ext_decompose(VirtualCharacter({0: 1, 2: -1, 1: 1, 3: -1}), serre_weight=3)
        assert dec.ext2 == VirtualCharacter({1: 1})
        assert dec.ext1 == VirtualCharacter({2: 1})

    def test_four_class(self):
        dec = ext_decompose(VirtualCharacter({0: 1, 1: -2, 2: 2, 3: -1}), serre_weight=3)
        assert dec.ext2 == VirtualCharacter({2: 2})
        assert dec.ext1 == VirtualCharacter({1: 2})

    def test_rebuild_identity(self):
        for _, total, _, _, _ in REFERENCE_CLASSES:
            chi = VirtualCharacter(total)
            dec = ext_decompose(chi, serre_weight=3)
            assert VirtualCharacter({0: 1}) - dec.ext1 + dec.ext2 - VirtualCharacter({3: 1}) == chi

    def test_weight_zero_residue_rejected(self):
        with pytest.raises(ValueError, match="^weight-0 part of chi is 2, expected 1$"):
            ext_decompose(VirtualCharacter({0: 2, 3: -1}), serre_weight=3)
        with pytest.raises(ValueError, match="weight-0 residue"):
            ext_decompose(VirtualCharacter({0: 1, 3: -2}), serre_weight=0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ext_decompose(VirtualCharacter({0: 1, 1: -1, 3: -1}), serre_weight=3)

    def test_no_serre_term(self):
        # ext2 holds mu^3 exactly when chi has no mu^3 term: -mu^3 + mu^3 cancel
        dec = ext_decompose(VirtualCharacter({0: 1, 1: -1}), serre_weight=3)
        assert dec == (VirtualCharacter({1: 1}), VirtualCharacter({3: 1}))
        dec = ext_decompose(VirtualCharacter({0: 1, 1: -2, 2: 1}), serre_weight=3)
        assert dec == (VirtualCharacter({1: 2}), VirtualCharacter({2: 1, 3: 1}))


class TestInvariants:
    def test_reference_classes(self, g, m):
        for cls, _, _, _, n in REFERENCE_CLASSES:
            assert bps_from_localization(cls, m, g) == n
            assert localize_class(cls, m, g).n == n

    def test_full_table_agreement(self, g, m):
        for rec in bps_table(m):
            assert bps_from_localization(rec.cls, m, g) == rec.invariant
            assert localize_class(rec.cls, m, g).n == rec.invariant

    def test_non_root_class_rejected(self, g, m):
        with pytest.raises(ValueError, match="positive root"):
            bps_from_localization((6, 0, 0, 6), m, g)
        with pytest.raises(ValueError, match="positive root"):
            localize_class((6, 0, 0, 6), m, g)

    def test_zero_class_rejected(self, g, m):
        with pytest.raises(ValueError):
            bps_from_localization((0, 0, 0, 0), m, g)
        with pytest.raises(ValueError):
            localize_class((0, 0, 0, 0), m, g)


class TestEulerRows:
    def test_reference_euler_rows(self, g, m):
        for cls, _, row2, row1, n in REFERENCE_CLASSES:
            dec = ext_decompose(total_chi(lift(cls, m), g, m), serre_weight=3)
            e2, e1 = euler_class(dec.ext2), euler_class(dec.ext1)
            assert (e2.scalar, e2.degree) == row2
            assert (e1.scalar, e1.degree) == row1
            assert Fraction(e2.scalar, e1.scalar) == n
            r = localize_class(cls, m, g)
            assert r.ext == dec
            assert (r.euler_ext2.scalar, r.euler_ext2.degree) == row2
            assert (r.euler_ext1.scalar, r.euler_ext1.degree) == row1


def test_non_image_scan_squares(m):
    image = {rec.cls for rec in bps_table(m)}
    for cls in product(range(7), repeat=4):
        if not any(cls) or cls in image:
            continue
        assert lift(cls, m).self_pairing <= -4


# -- guards on the integer localization engine --------------------------------


def _assert_certified(chi, serre_weight=3):
    """An integer Laurent polynomial with chi(1) = 0 and Serre symmetry."""
    assert isinstance(chi, LaurentPoly)
    assert all(type(c) is int for c in chi.coeffs.values())
    assert chi.evaluate(1) == 0
    assert chi.dual() * LaurentPoly({serre_weight: 1}) == -chi


def test_small_box_totals_certified(m, g):
    for cls in product(range(4), repeat=4):
        if any(cls):
            _assert_certified(total_chi(lift(cls, m), g, m))


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 12)] * 4).filter(any))
def test_large_box_totals_certified(cls):
    m = e8_a5_marking()
    _assert_certified(total_chi(lift(cls, m), e8_a5_descriptor(), m))


def _oracle_character(lft, p, g, m, x):
    """ch at the threefold point p, evaluated at x with Fractions only.

    The restriction is read off the descriptor and the lift here: at a
    surface point, minus the sum of multiplicity times normal weight; on
    a fixed curve, its multiplicity times minus its first crossing
    weight, and minus its intersection number with the lift, taken from
    the Cartan matrix.  Isolated points use the residue formula directly;
    a pointwise-fixed curve is pushed down in the ring a + b*x_pt with
    x_pt^2 = 0, by exact arithmetic on the pairs (a, b).
    """
    node = divisor_labels(m)
    cartan = m.diagram.cartan_matrix()

    def mul(u, v):
        return u[0] * v[0], u[0] * v[1] + u[1] * v[0]

    def inverse(u):
        return 1 / u[0], -u[1] / u[0] ** 2

    pref = Fraction(1)
    for w in p.weights:
        pref *= 1 - x**-w
    out = Fraction(0)
    for q in g.s_points:
        if q.image == p.name:
            w = -sum(lft.full[node[inc.divisor]] * inc.weight for inc in q.incidences)
            out += pref * (1 - x**w) / ((1 - x ** -q.weights[0]) * (1 - x ** -q.weights[1]))
    for e in g.s_curves:
        if e.image == p.name:
            k = node[e.name]
            w = -lft.full[k] * (e.incidences[0].weight if e.incidences else e.normal_weight)
            d = sum(lft.full[j] * cartan[j][k] for j in range(len(lft.full)))
            n, s = e.normal_weight, e.self_intersection
            restriction = (1 - x**w, -d * x**w)
            normal = (1 - x**-n, s * x**-n)
            out += pref * mul(mul(restriction, (1, 1)), inverse(normal))[1]
    return out


def test_exact_evaluation_oracle(m, g):
    classes = [rec.cls for rec in bps_table(m)]
    classes += [c for c in product(range(3), repeat=4) if any(c) and c not in classes]
    for cls in classes:
        lft = lift(cls, m)
        chi = total_chi(lft, g, m)
        for x in (Fraction(2), Fraction(3, 2), Fraction(-5, 3)):
            want = Fraction(0)
            for p in g.y_points:
                ch = _oracle_character(lft, p, g, m, x)
                assert _point_records(lft, g, m)[p.name].ch.evaluate(x) == ch, (cls, p.name, x)
                pref = Fraction(1)
                for w in p.weights:
                    pref *= 1 - x**-w
                want += _oracle_character(lft, p, g, m, 1 / x) * ch / pref
            assert chi.evaluate(x) == want, (cls, x)


def _int_mutants(obj):
    """(path, copy) for every integer field of obj moved by -1 and by +1."""
    if isinstance(obj, int):
        for d in (-1, 1):
            yield (d,), obj + d
    elif hasattr(obj, "_fields"):  # a record is a tuple too: test for it first, or mutants lose their type
        for name in obj._fields:
            for path, new in _int_mutants(getattr(obj, name)):
                yield (name, *path), obj._replace(**{name: new})
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            for path, new in _int_mutants(item):
                yield (i, *path), obj[:i] + (new,) + obj[i + 1 :]


def test_descriptor_mutation_sweep(m, g):
    # Every +-1 change to one integer of the built-in descriptor must be
    # rejected, warned about, make total_chi raise, or change a table total.
    classes = [rec.cls for rec in bps_table(m)]
    base = [total_chi(lift(c, m), g, m) for c in classes]
    outcomes = {"rejected": [], "warned": [], "raises": [], "changed": []}
    certificate_only = []
    for path, mutant in _int_mutants(g):
        try:
            warnings = validate_descriptor(mutant, m)
        except DescriptorError:
            outcomes["rejected"].append(path)
            continue
        if warnings:
            outcomes["warned"].append(path)
            continue
        errors, totals = [], []
        for cls in classes:
            try:
                totals.append(total_chi(lift(cls, m), mutant, m))
            except ValueError as exc:
                errors.append(exc)
        if errors:
            outcomes["raises"].append(path)
            if not any(isinstance(exc, DescriptorError) for exc in errors):
                assert all("not a polynomial" in str(exc) for exc in errors), (path, errors)
                certificate_only.append(path)
        else:
            assert totals != base, f"mutant {path} goes undetected"
            outcomes["changed"].append(path)
    assert {k: len(v) for k, v in outcomes.items()} == {
        "rejected": 92, "warned": 0, "raises": 0, "changed": 0
    }
    assert outcomes["warned"] == []
    assert certificate_only == []


def _descriptor_faults(g, m, classes):
    """The DescriptorError messages that each library entry point raises on g, None where it raises none."""
    faults = set()
    for k, cls in enumerate(classes):
        lft = lift(cls, m)
        for call in (
            lambda: total_chi(lft, g, m),
            lambda: localize_class(cls, m, g),
        ):
            try:
                call()
            except DescriptorError as exc:
                faults.add(str(exc))
                continue
            except ValueError:  # the certificate or the Ext split: not a descriptor check
                pass
            faults.add(None)
    return faults


def _validator_fault(g, m):
    try:
        validate_descriptor(g, m)
    except DescriptorError as exc:
        return str(exc)
    return None


def test_rejected_mutants_raise_everywhere(m, g):
    # the library checks what the validator checks: every +-1 mutant it
    # rejects raises the same error from every entry point on every class
    classes = [rec.cls for rec in bps_table(m)]
    rejected = 0
    for path, mutant in _int_mutants(g):
        fault = _validator_fault(mutant, m)
        if fault is not None:
            rejected += 1
            assert _descriptor_faults(mutant, m, classes) == {fault}, path
    assert rejected == 92


def _edit_incidences(g, section, i, edit):
    """g with edit applied to the incidence list of component i of a section."""
    parts = list(getattr(g, section))
    parts[i] = parts[i]._replace(incidences=tuple(edit(list(parts[i].incidences))))
    return g._replace(**{section: tuple(parts)})


@st.composite
def _perturbed_descriptors(draw):
    """The built-in descriptor after 2-3 edits: an integer moved by 1, an
    incidence dropped or duplicated, or the labels of two incidences swapped."""
    g = e8_a5_descriptor()
    for _ in range(draw(st.integers(2, 3))):
        edit = draw(st.sampled_from(["integer", "drop", "duplicate", "swap"]))
        sites = [(section, i, j) for section in ("s_points", "s_curves")
                 for i, part in enumerate(getattr(g, section)) for j in range(len(part.incidences))]
        if edit == "integer" or not sites:
            g = draw(st.sampled_from([mutant for _, mutant in _int_mutants(g)]))
        elif edit == "drop":
            section, i, j = draw(st.sampled_from(sites))
            g = _edit_incidences(g, section, i, lambda incs: incs[:j] + incs[j + 1 :])
        elif edit == "duplicate":
            section, i, j = draw(st.sampled_from(sites))
            g = _edit_incidences(g, section, i, lambda incs: incs[: j + 1] + incs[j:])
        else:
            (s1, i1, j1), (s2, i2, j2) = draw(st.lists(st.sampled_from(sites), min_size=2, max_size=2))
            a = getattr(g, s1)[i1].incidences[j1].divisor
            b = getattr(g, s2)[i2].incidences[j2].divisor
            for section, i, j, label in ((s1, i1, j1, b), (s2, i2, j2, a)):
                g = _edit_incidences(
                    g, section, i, lambda incs: incs[:j] + [incs[j]._replace(divisor=label)] + incs[j + 1 :]
                )
    return g


@settings(max_examples=60, deadline=None)
@given(_perturbed_descriptors())
def test_validator_and_library_agree(mutant):
    # on multi-field perturbations, validate_descriptor and the library entry
    # points all raise the same DescriptorError, or none of them raises one
    m = e8_a5_marking()
    classes = [rec.cls for rec in bps_table(m)][::6]
    assert _descriptor_faults(mutant, m, classes) == {_validator_fault(mutant, m)}


# -- the kernel against the formula it replaces -----------------------------


def _todd_by_euler(p):
    """td/e(N) at the threefold point p: 1 / prod (1 - mu^-w) over its tangent weights."""
    return Quotient(1, [-w for w in p.weights])


def _chi_from_characters(lft, g, m):
    """The sum over p of ch_p^dual * ch_p * td/e(N), from the records' characters."""
    total = Quotient()
    records = _point_records(lft, g, m)
    for p in g.y_points:
        ch = records[p.name].ch
        total = total + ch.dual() * ch * _todd_by_euler(p)
    quo, rem = divide_with_remainder(total, total.den)
    assert not rem, "not a polynomial"
    return quo


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(0, 12)] * 4).filter(any))
def test_total_chi_equals_character_formula(cls):
    m, g = e8_a5_marking(), e8_a5_descriptor()
    lft = lift(cls, m)
    assert total_chi(lft, g, m) == _chi_from_characters(lft, g, m)


def test_record_contributions_equal_character_formula(m, g):
    for rec in bps_table(m):
        r = localize_class(rec.cls, m, g)
        records = _point_records(r.lift, g, m)
        assert list(r.points) == list(records) == [p.name for p in g.y_points]
        for p in g.y_points:
            ch = r.points[p.name].ch
            assert r.points[p.name] is records[p.name]
            assert r.points[p.name].contribution == ch.dual() * ch * _todd_by_euler(p), (rec.cls, p.name)


def test_record_summands_add_up_to_the_character(m, g):
    # ch_p = E_p * (the surface residues + the curve push-downs): each surface
    # summand carries E_p already, and each curve's push-down is rebuilt from
    # the record's (w_e, d_e) and the descriptor's normal weight
    for rec in bps_table(m):
        for name, r in localize_class(rec.cls, m, g).points.items():
            pref = prod((expfactor(-w) for w in g.y_point(name).weights), start=LaurentPoly({0: 1}))
            curves = [pref * _curve_residue(w, d, e.normal_weight)
                      for e, (w, d) in zip(_over(g.s_curves, name), r.curves, strict=True)]
            assert quotient_sum([summand for _, summand in r.surface] + curves) == r.ch, (rec.cls, name)


# -- metamorphic properties ------------------------------------------------------

#: the 36 classes of the e8-a5 table, each from a positive root
_TABLE_CLASSES = [rec.cls for rec in bps_table(e8_a5_marking())]
_BOX_CLASSES = st.tuples(*[st.integers(0, 12)] * 4).filter(any)


def _scaled(g, k):
    """g with every weight times k: tangent, incidence, normal and canonical."""

    def incidences(incs):
        return tuple(Incidence(i.divisor, k * i.weight) for i in incs)

    return GeometryDescriptor(
        tuple(YPoint(y.name, tuple(k * w for w in y.weights)) for y in g.y_points),
        tuple(SPoint(q.name, tuple(k * w for w in q.weights), q.image, incidences(q.incidences))
              for q in g.s_points),
        tuple(e._replace(normal_weight=k * e.normal_weight, incidences=incidences(e.incidences))
              for e in g.s_curves),
        k * g.canonical_weight,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 12).filter(bool), _BOX_CLASSES, st.sampled_from(_TABLE_CLASSES))
def test_scaling_every_weight_substitutes_mu_to_the_k(k, cls, root):
    # Scaling every weight by k is the substitution mu -> mu^k: chi follows
    # it and n stays.  The memos are warm from the unscaled descriptor first,
    # so a record or a key that left out a weight would hand back its sum.
    m, g = e8_a5_marking(), e8_a5_descriptor()
    lft = lift(cls, m)
    chi, n = total_chi(lft, g, m), localize_class(root, m, g).n
    scaled = _scaled(g, k)
    # the seven surface points' tangent weights sum to k, not 1
    assert len(validate_descriptor(scaled, m)) == (0 if k == 1 else 7)
    assert total_chi(lft, scaled, m) == VirtualCharacter({k * w: c for w, c in chi.coeffs.items()})
    assert localize_class(root, m, scaled).n == n
    assert _contains_class_den(scaled, m, lft)



@pytest.mark.parametrize("cls, n", [((1, 2, 2, 1), 4), ((2, 4, 3, 2), 2), ((2, 4, 4, 2), Fraction(1, 2))],
                         ids=["1,2,2,1", "2,4,3,2", "2,4,4,2"])
def test_ext_split_takes_the_serre_weight_of_its_descriptor(m, g, cls, n):
    # scaled by 2, the canonical weight is -6; a split at weight 3, the old
    # default, would read n = 2, 1 and 1/4 here
    scaled = _scaled(g, 2)
    chi = total_chi(lift(cls, m), scaled, m)
    with pytest.raises(TypeError, match="serre_weight"):
        ext_decompose(chi)
    dec = ext_decompose(chi, serre_weight=6)
    assert Fraction(euler_class(dec.ext2).scalar, euler_class(dec.ext1).scalar) == n
    assert localize_class(cls, m, scaled).n == n


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(5)), st.permutations(range(7)), st.booleans(), _BOX_CLASSES,
       st.sampled_from(_TABLE_CLASSES))
def test_reordering_and_renaming_points_changes_nothing(ys, qs, rename, cls, root):
    m, g = e8_a5_marking(), e8_a5_descriptor()
    lft = lift(cls, m)
    chi, weights, record = total_chi(lft, g, m), _weights(lft, g, m), localize_class(root, m, g)
    names = {x.name: f"{x.name[0]}x{i}" if rename else x.name for i, x in enumerate(g.y_points + g.s_points)}
    names["E3"] = "E3"  # a fixed curve is named by its divisor label
    moved = GeometryDescriptor(
        tuple(YPoint(names[y.name], y.weights) for y in (g.y_points[i] for i in ys)),
        tuple(q._replace(name=names[q.name], image=names[q.image]) for q in (g.s_points[i] for i in qs)),
        tuple(e._replace(image=names[e.image]) for e in g.s_curves),
        g.canonical_weight,
    )
    assert validate_descriptor(moved, m) == []
    assert total_chi(lft, moved, m) == chi
    assert _weights(lft, moved, m) == {names[name]: w for name, w in weights.items()}
    again = localize_class(root, m, moved)
    assert (again.chi, again.ext, again.n) == (record.chi, record.ext, record.n)
    assert {name: r.ch for name, r in again.points.items()} == {names[name]: r.ch for name, r in record.points.items()}


def _degenerate(g, name, weights):
    return GeometryDescriptor(
        tuple(YPoint(y.name, weights) if y.name == name else y for y in g.y_points),
        g.s_points,
        g.s_curves,
        g.canonical_weight,
    )


@pytest.mark.parametrize("name", ["P1", "P4", "P"])  # surface points over P1 and P4, the curve over P
def test_degenerate_threefold_point_raises(m, g, top, name):
    broken = _degenerate(g, name, (0, 1, 2))
    with pytest.raises(DescriptorError, match="degenerate fixed point"):
        total_chi(top, broken, m)
    with pytest.raises(DescriptorError, match="degenerate fixed point"):
        localize_class((3, 5, 4, 3), m, broken)
    with pytest.raises(DescriptorError, match="degenerate fixed point"):
        _point_records(top, broken, m)
    # the check depends on the descriptor, not on the class
    with pytest.raises(DescriptorError, match="degenerate fixed point"):
        total_chi(lift((0, 1, 0, 0), m), broken, m)


def test_degenerate_point_with_nothing_over_it(m, g, top):
    lonely = GeometryDescriptor(g.y_points + (YPoint("P9", (0, 1, 2)),), g.s_points, g.s_curves)
    assert _point_records(top, lonely, m)["P9"].ch == 0
    assert total_chi(top, lonely, m) == total_chi(top, g, m)


# -- the residue memo -----------------------------------------------------------


def _outcome(cls, g, m):
    """The total as text, or the exception it raises."""
    try:
        return str(total_chi(lift(cls, m), g, m))
    except ValueError as exc:  # compared by type and message
        return repr(exc)


def _clear_memos():
    for memo in (_point_sums, _point_record, _resolve):
        memo.cache_clear()


def test_point_sums_memo_is_transparent(m, g):
    # Each +-1 mutant must give the same total or the same error whether
    # the memos are warm from the base descriptor or empty: a key that left
    # out an integer the residue sum reads would hand back a stale sum.
    classes = [rec.cls for rec in bps_table(m)][::4]
    try:
        for path, mutant in _int_mutants(g):
            for cls in classes:
                total_chi(lift(cls, m), g, m)
            warm = [_outcome(cls, mutant, m) for cls in classes]
            cold = []
            for cls in classes:
                _clear_memos()
                cold.append(_outcome(cls, mutant, m))
            assert warm == cold, path
    finally:
        _clear_memos()


def test_cached_sums_are_read_only(m, g):
    # (3,5,4,3) and (2,5,4,3) read the same lift entries at P3, P4 and P,
    # so the second class reads the records the first one stored.
    a, b = lift((3, 5, 4, 3), m), lift((2, 5, 4, 3), m)
    pairs = zip(_point_records(a, g, m).items(), _point_records(b, g, m).values())
    shared = [name for (name, x), y in pairs if x is y]
    assert shared == ["P3", "P4", "P"]
    _point_sums.cache_clear()
    _point_record.cache_clear()
    first = localize_class((3, 5, 4, 3), m, g)
    text = str(first)
    cached = {name: str(r.contribution) for name, r in _point_records(a, g, m).items()}
    cached_ch = {name: str(r.ch) for name, r in _point_records(a, g, m).items()}
    localize_class((2, 5, 4, 3), m, g)
    again = localize_class((3, 5, 4, 3), m, g)
    assert again == first and str(again) == str(first) == text
    assert {name: str(r.contribution) for name, r in first.points.items()} == cached
    assert {name: str(r.ch) for name, r in again.points.items()} == cached_ch
    _clear_memos()
    fresh = localize_class((3, 5, 4, 3), m, g)
    assert fresh == first and str(fresh) == text
    assert {name: str(r.contribution) for name, r in fresh.points.items()} == cached
    assert {name: str(r.ch) for name, r in fresh.points.items()} == cached_ch
    assert {name: str(r.ch) for name, r in _point_records(a, g, m).items()} == cached_ch


def test_point_sums_read_only_on_record_misses(m, g):
    # the residue memo is looked up once per record miss and nowhere else,
    # and both hand out one shared record per key, which holds its split
    # over the resolved D: quo * D + rem is the contribution's numerator
    # over D, and rem lies in [0, deg D)
    _clear_memos()
    for rec in bps_table(m):
        localize_class(rec.cls, m, g)
    sums, records = _point_sums.cache_info(), _point_record.cache_info()
    assert sums.hits + sums.misses == records.misses
    assert records.misses < records.hits + records.misses == 5 * 36
    assert 0 < sums.hits
    d = _den_poly(_E8_A5_DEN)
    for rec in bps_table(m):
        lft = lift(rec.cls, m)
        for pt in _resolve(g, m).values():
            key = pt.plan(pt.read(lft.full))
            r = _point_record(pt.plan, pt.read(lft.full))
            assert r is _point_sums(*key) and key[-1] == _E8_A5_DEN
            assert r.contribution * d == r.quo * d + r.rem
            assert all(0 <= w < 21 for w in r.rem.coeffs)


#: the resolved D of e8-a5, (1-mu)(1-mu^2)^2(1-mu^3)(1-mu^4)^2(1-mu^5), as sorted (k, e_k)
_E8_A5_DEN = ((1, 1), (2, 2), (3, 1), (4, 2), (5, 1))


def _den_poly(den) -> LaurentPoly:
    """prod (1 - mu^k)^e_k over the (k, e_k) pairs, multiplied out."""
    return Quotient(1, [k for k, e in den for _ in range(e)]).den_poly()


def _resolved_den(g, m) -> tuple:
    """The one D that every point key of the resolution of (g, m) carries."""
    zero = (0,) * m.diagram.rank
    (den,) = {pt.plan(pt.read(zero))[-1] for pt in _resolve(g, m).values()}
    return den


def _contains_class_den(g, m, lft) -> bool:
    """Whether the resolved D holds every factor of the class's own common denominator."""
    den = dict(_resolved_den(g, m))
    own = common_denominator(r.contribution for r in _point_records(lft, g, m).values() if r.contribution)
    return all(e <= den.get(k, 0) for k, e in own.items())


def test_resolved_denominator(m, g):
    # D is fixed from the weights alone: at each point the residues'
    # denominators at their largest exponents, doubled, less one factor per
    # tangent weight, then the largest exponents over the points.  Without
    # the doubling it misses a class's denominator; without the cancellation
    # it is larger than this product.
    assert _resolved_den(g, m) == _E8_A5_DEN
    small = [c for c in product(range(4), repeat=4) if any(c)]
    assert len(small) == 255
    for cls in [*_TABLE_CLASSES, *small]:
        assert _contains_class_den(g, m, lift(cls, m)), cls
    # on e8-a5 other points supply the factor 1 - mu of the fixed curve E3;
    # alone over P, as the one node of A1, the curve is all of D
    a1 = Marking(build_diagram("A", 1), frozenset(), (0,))
    curve = GeometryDescriptor((YPoint("P", (1, 1, 1)),), (), (SCurve("F1", "P", 1, -2, ()),))
    assert _resolved_den(curve, a1) == ((1, 1),)
    assert total_chi(lift((1,), a1), curve, a1) == VirtualCharacter({0: 1, 1: -3, 2: 3, 3: -1})


def _point_denominator(p, points, curves) -> Quotient:
    """The reference for ``_point_exponents``: 1 over p's largest residue denominators,
    doubled and cancelled by its weights, in ``Quotient`` arithmetic."""
    s = Quotient._raw({0: 1}, common_denominator(
        [Quotient(1, q.weights) for q, _ in points] + [Quotient(1, (e.normal_weight,) * 2) for e, _ in curves]))
    return times_expfactors(s * s, p.weights)


def _reference_den(g, m) -> tuple:
    """D of (g, m) by the reference: the largest exponent of each factor over the points."""
    over = _checked_components(g, m)
    return tuple(sorted(common_denominator(_point_denominator(p, *c) for p, c in over.items()).items()))


_WEIGHTS = st.integers(-6, 6).filter(bool)


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[_WEIGHTS] * 3), st.lists(st.tuples(_WEIGHTS, _WEIGHTS), max_size=4), st.lists(_WEIGHTS, max_size=3))
def test_point_exponents_equal_the_quotient_reference(weights, surface, normals):
    # repeated |weights| within a point, across points and against the curves' normal weights
    p = YPoint("P", weights)
    points = [(SPoint(f"Q{i}", ws, "P", ()), ()) for i, ws in enumerate(surface)]
    curves = [(SCurve(f"F{i}", "P", n, -2, ()), ()) for i, n in enumerate(normals)]
    assert _point_exponents(p, points, curves) == _point_denominator(p, points, curves).den


def test_resolved_denominator_equals_the_reference(m, g):
    # scaled by 2 every k doubles; reordered, D is unchanged
    reordered = g._replace(y_points=g.y_points[::-1], s_points=g.s_points[::-1])
    doubled = tuple((2 * k, e) for k, e in _E8_A5_DEN)
    for desc, want in ((g, _E8_A5_DEN), (_scaled(g, 2), doubled), (reordered, _E8_A5_DEN)):
        assert _resolved_den(desc, m) == _reference_den(desc, m) == want


def test_resolution_is_one_named_point_per_threefold_point(m, g, top):
    # keyed by name in descriptor order; each record holds what lies over
    # its point in descriptor order (P1's two surface points have other weights)
    resolved = _resolve(g, m)
    assert list(resolved) == [y.name for y in g.y_points]
    assert all(type(pt) is _Point for pt in resolved.values())
    records = _point_records(top, g, m)
    assert list(records) == list(resolved)
    for name, r in records.items():
        assert type(r) is PointRecord
        assert [w for w, _ in r.surface] == [GOLDEN_POINT_WEIGHTS[q.name] for q in _over(g.s_points, name)]
        assert len(r.curves) == len(_over(g.s_curves, name))
    assert [len(r.surface) for r in records.values()] == [2, 2, 2, 1, 0]
    assert [len(r.curves) for r in records.values()] == [0, 0, 0, 0, 1]


def test_point_supports(m, g):
    # P4 reads one lift entry (F4), P1 and P3 two, P2 three, P four (E3 and
    # its neighbours), and a point with nothing over it none; every support
    # reads a tuple, also where itemgetter of one index would give a scalar
    lonely = GeometryDescriptor(g.y_points + (YPoint("P9", (1, 1, 1)),), g.s_points, g.s_curves)
    top = lift((3, 5, 4, 3), m)
    supports = {name: pt.read(top.full) for name, pt in _resolve(lonely, m).items()}
    assert supports == {"P1": (2, 3), "P2": (3, 4, 5), "P3": (4, 2), "P4": (3,), "P": (5, 6, 4, 3), "P9": ()}
    for cls in ((3, 5, 4, 3), (0, 0, 0, 1), (1, 0, 0, 0), (1, 2, 2, 1)):
        lft = lift(cls, m)
        seen = []
        for _ in ("cold", "warm"):
            if not seen:
                _clear_memos()
            seen.append((_weights(lft, lonely, m),
                         {name: r.ch for name, r in _point_records(lft, lonely, m).items()},
                         total_chi(lft, lonely, m)))
        weights, characters, chi = seen[0]
        assert seen[1] == seen[0]
        assert weights == _weights(lft, g, m)
        assert characters == {**{name: r.ch for name, r in _point_records(lft, g, m).items()}, "P9": 0}
        assert chi == total_chi(lft, g, m)


def test_remainders_that_do_not_cancel_raise(m, g):
    # moving the normal weight of the fixed curve E3 from 1 to 2 used to pass
    # every check and reach only the certificate; its crossings now reject it
    e3 = g.s_curves[0]
    assert (e3.name, e3.normal_weight) == ("E3", 1)
    bent = g._replace(s_curves=(e3._replace(normal_weight=2), *g.s_curves[1:]))
    with pytest.raises(DescriptorError, match=r"inconsistent crossing weights on 'E3': \[1, 2\]"):
        validate_descriptor(bent, m)
    # the certificate itself.  Each point contribution of (3,5,4,3) is a
    # Laurent polynomial, so dropping one leaves remainders that cancel; for
    # (1,2,2,1) those of P1 and P2 are not.  Without P1 or P2, the exact sum
    # of the other contributions is not a polynomial, and the remainders
    # over their common denominator do not cancel, warm or cold; without
    # any other point the certified sum is the exact one.
    for cls, faulty in (((3, 5, 4, 3), set()), ((1, 2, 2, 1), {"P1", "P2"})):
        lft = lift(cls, m)
        for clear in (False, True):
            for p in g.y_points:
                if clear:
                    _clear_memos()
                rest = [r for name, r in _point_records(lft, g, m).items() if name != p.name]
                exact = quotient_sum(r.contribution for r in rest)
                if p.name not in faulty:
                    assert divide_with_remainder(exact, exact.den) == (_certified_sum(rest), 0)
                    continue
                assert divide_with_remainder(exact, exact.den)[1]
                with pytest.raises(ValueError, match="the remainders over the common denominator do not cancel"):
                    _certified_sum(rest)
            assert _certified_sum(_point_records(lft, g, m).values()) == total_chi(lft, g, m)


def test_equal_descriptors_hash_alike(m, g):
    # equality and the hash are structural, so equal copies share one resolution
    copies = [parse_descriptor(format_descriptor(g)), g._replace(), pickle.loads(pickle.dumps(g))]
    for h in (hash(g), hash(g)):
        for other in copies:
            assert other == g and other is not g and hash(other) == h
    bent = g._replace(canonical_weight=-2)
    assert bent != g and hash(bent) != hash(g)
    assert _resolve(copies[0], m) is _resolve(g, m)


def test_descriptor_resolved_once(m, g, monkeypatch):
    # labels are resolved per (descriptor, marking), never per class
    _resolve.cache_clear()
    calls = []
    monkeypatch.setattr("adebps.descriptor.divisor_labels", lambda mk: calls.append(mk) or divisor_labels(mk))
    for rec in bps_table(m):
        lft = lift(rec.cls, m)
        total_chi(lft, g, m)
        localize_class(rec.cls, m, g)
        _point_records(lft, g, m)
    assert len(calls) == 1 and _resolve.cache_info().misses == 1



@pytest.mark.parametrize("indices, want", [((2, 0), (7, 5)), ((2,), (7,)), ((3,), (8,)), ((), ())])
def test_tuple_getter_returns_a_tuple_of_the_entries(indices, want):
    assert tuple_getter(indices)((5, 6, 7, 8)) == want


def test_validation_compiles_nothing(m, g, monkeypatch):
    # validate_descriptor runs the check walk alone: it builds no getter and leaves no resolution cached
    _resolve.cache_clear()
    monkeypatch.setattr("adebps.localize.tuple_getter", lambda indices: pytest.fail("compiled a getter"))
    assert validate_descriptor(g, m) == []
    with pytest.raises(DescriptorError, match="tangent weights of P1 sum to 4"):
        validate_descriptor(g._replace(y_points=(g.y_points[0]._replace(weights=(5, 1, -2)), *g.y_points[1:])), m)
    assert _resolve.cache_info().currsize == 0
