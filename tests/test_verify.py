"""Every ``verify`` check passes on the built-in case with a pinned detail,
and reports FAIL when one function of the pipeline it guards is faulty.

A check that no fault can fail certifies nothing.  Each fault here is
injected by monkeypatching one name a check reaches, and every ``_expect``
of every check is the first to fail on at least one fault.  A check runs
unpatched first, which also fills the record memos, and the memos are
cleared afterwards, so none keeps a value that a fault reached.
"""

import re

import pytest

from adebps import localize, verify
from adebps.localize import ExtDecomposition
from adebps.symring import LaurentPoly, Quotient

#: check name -> the detail it reports when it passes on e8-a5, in run order
PASSING_DETAILS = {
    "fixed-point data passes structural lints": "hard checks pass, no warnings",
    "golden fixed-point intermediates reproduced": "25 golden values reproduced",
    "character totals for the four reference classes": "4 character totals",
    "Euler-class rows and invariants for the reference classes": "4 Euler-class rows",
    "folding and localization agree on the reference classes": "4 classes agree",
    "totals vanish at mu=1 with unit ends": "4 totals vanish at mu=1 with coefficients +1/-1 at weights 0/3",
    "positive-root counts match the closed forms": "16 diagrams",
    "closure enumeration equals the brute-force scan": "16 diagrams",
    "highest root and its white part": "(2, 3, 4, 5, 6, 4, 2, 3)",
    "folded table statistics": "36 classes, 116 roots, 4 dropped",
    "lift validity across the table image": "36 lifts, longest root gives (2, 4, 6, 2)",
    "fiber counts are 2^m on the bipartite markings up to rank 8":
        "31 bipartite markings of A1-A8, D4-D8 and E6-E8, 306 classes: each has 2^m roots",
    "square of the lift rejects non-root classes": "2364 non-root classes all have square <= -4",
    "totals on the class box [0,3]^4 are integral and Serre antisymmetric":
        "255 classes of [0,3]^4, root and non-root: integral, chi(1) = 0, Serre antisymmetric"
        " (checks that do not rest on the fitted e8-a5 weights)",
    "folding and localization agree on every table class": "36 classes agree",
    "the blackening is the unique valid one":
        "unique among 70 subsets; 63 have adjacent black nodes, 68 another white part,"
        " 63 another number of dropped roots",
}


def test_every_check_passes_with_its_detail():
    got = [(r.name, r.passed, r.detail) for r in verify.run_checks()]
    assert got == [(name, True, detail) for name, detail in PASSING_DETAILS.items()]


def _then(change):
    """A fault: the original function with ``change`` applied to what it returns."""
    return lambda f: lambda *args, **kwargs: change(f(*args, **kwargs))


def _field(name, change):
    """A fault: the original function with ``change`` applied to one field of the record it returns."""
    return _then(lambda r: r._replace(**{name: change(getattr(r, name))}))


def _q1(change):
    """A fault: ``localize_class`` with ``change`` applied to (w_q, summand) of Q1, P1's first surface point."""

    def bent(points):
        p1 = points["P1"]
        q1, *rest = p1.surface
        return {**points, "P1": p1._replace(surface=(change(*q1), *rest))}

    return _field("points", bent)


def _at_p(change):
    """A fault: ``localize_class`` with ``change`` applied to the record of P."""
    return _field("points", lambda points: {**points, "P": change(points["P"])})


def _top_lifted_as_another_class(f):
    """A fault: ``lift`` that lifts (3, 5, 4, 3) as (2, 4, 4, 2), a valid lift of another class."""
    return lambda cls, m: f((2, 4, 4, 2) if cls == (3, 5, 4, 3) else cls, m)


#: fault id -> (check, module, name, fault: original -> replacement, pattern of the FAIL detail)
FAULTS = {
    "lints": ("_descriptor_lints", verify, "validate_descriptor", _then(lambda w: [*w, "Q4: bent"]), r"^Q4: bent$"),
    "golden-weight": ("_golden_intermediates", verify, "localize_class", _q1(lambda w, summand: (w + 1, summand)),
                      r"^restriction weight at Q1$"),
    "golden-summand": ("_golden_intermediates", verify, "localize_class",
                       _q1(lambda w, summand: (w, summand.dual())), r"^summand at Q1$"),
    "golden-character": ("_golden_intermediates", verify, "localize_class",
                         _at_p(lambda r: r._replace(ch=r.ch.dual())), r"^character at P$"),
    "golden-contribution": ("_golden_intermediates", verify, "localize_class",
                            _at_p(lambda r: r._replace(contribution=-r.contribution)), r"^contribution of P$"),
    # the records are memoized before the fault, so only the check's own call of dual sees it
    "golden-dual": ("_golden_intermediates", Quotient, "dual", lambda f: lambda q: q,
                    r"^dual of the character at P1: "),
    "totals": ("_reference_totals", localize, "_certified_sum", _then(lambda chi: chi.dual()),
               r"^\(3, 5, 4, 3\): chi = -mu\^-3 \+ 1$"),
    "euler-ext2": ("_reference_euler_rows", localize, "ext_decompose",
                   _then(lambda ext: ExtDecomposition(*reversed(ext))), r"^\(2, 4, 4, 2\): e\(ext2\) = "),
    "euler-ext1": ("_reference_euler_rows", verify, "localize_class",
                   _field("euler_ext1", lambda e: e._replace(scalar=2 * e.scalar)),
                   r"^\(3, 5, 4, 3\): e\(ext1\) = "),
    "euler-n": ("_reference_euler_rows", verify, "localize_class", _field("n", lambda n: -n),
                r"^\(3, 5, 4, 3\): n = -1$"),
    "cross-reference": ("_cross_pipeline_reference", verify, "bps_table",
                        _then(lambda table: [r._replace(invariant=2 * r.invariant) for r in table]),
                        r"^\(3, 5, 4, 3\): localization 1, folding 2$"),
    "ends-at-one": ("_totals_unit_ends", verify, "localize_class",
                    _field("chi", lambda chi: chi + LaurentPoly({1: 1})), r"^\(3, 5, 4, 3\): chi\(1\) != 0$"),
    # keeps the coefficient at weight 0 and moves the one at 3, so both ends must be read
    "ends-coefficients": ("_totals_unit_ends", localize, "_certified_sum",
                          _then(lambda chi: chi + LaurentPoly({3: 1, 4: -1})), r"^\(3, 5, 4, 3\): ends of "),
    "root-counts": ("_root_counts", verify, "enumerate_positive_roots", _then(lambda roots: roots[:-1]),
                    r"^A1: 0 roots, expected 1$"),
    "closure-oracle": ("_closure_equals_bruteforce", verify, "enumerate_positive_roots_bruteforce",
                       _then(lambda roots: roots[:-1]), r"^A1$"),
    "highest-root": ("_highest_root", verify, "highest_root", _then(lambda h: h[::-1]),
                     r"^highest root \(3, 2, 4, 6, 5, 4, 3, 2\)$"),
    "highest-white": ("_highest_root", verify, "project", _then(lambda white: white[::-1]),
                      r"^white part \(3, 4, 5, 3\)$"),
    "table-classes": ("_table_statistics", verify, "bps_table", _then(lambda table: table[1:]), r"^35 classes$"),
    # leaves 116 roots mapped, so both counts must be read
    "table-dropped": ("_table_statistics", verify, "enumerate_positive_roots", _then(lambda roots: roots[:-1]),
                      r"^116 mapped, 3 dropped$"),
    "table-groups": ("_table_statistics", verify, "bps_table",
                     _then(lambda table: [r._replace(invariant=1 / r.invariant) for r in table]),
                     r"^group n=1/2: \(48, 12\)$"),
    "lift-square": ("_lift_validity", verify, "lift", _field("self_pairing", lambda square: square - 2),
                    r"^\(\d, \d, \d, \d\): square -4$"),
    # every delta in {0, -1}, the old range check, but not the curve pairings
    "lift-delta": ("_lift_validity", verify, "lift", _field("delta", lambda delta: (0,) * len(delta)),
                   r": delta \(0, 0, 0, 0\), curve pairings \("),
    "lift-top": ("_lift_validity", verify, "lift", _top_lifted_as_another_class, r"^black coefficients \("),
    "fold-square": ("_fold_counts", verify, "lift", _field("self_pairing", lambda square: square - 2),
                    r"^A1 with black \(\), \(1,\): square -4$"),
    # one more odd white-neighbour sum doubles the expected count
    "fold-count": ("_fold_counts", verify, "lift", _field("k", lambda k: (*k, 1)),
                   r"^A1 with black \(\), \(1,\): 1 roots, not 2\^1$"),
    "nonroot-square": ("_nonroot_classes_scan", verify, "lift", _field("self_pairing", lambda square: square // 2),
                       r"^\(\d, \d, \d, \d\): square -[23]$"),
    "box-at-one": ("_box_invariants", verify, "total_chi", _then(lambda chi: chi + LaurentPoly({0: 1})),
                   r": chi\(1\) != 0$"),
    "box-serre": ("_box_invariants", verify, "total_chi", _then(lambda chi: chi * LaurentPoly({1: 1})),
                  r": no Serre antisymmetry in "),
    "cross-full": ("_cross_pipeline_full", verify, "localize_class", _field("n", lambda n: -n),
                   r"^\(\d+, \d+, \d+, \d+\): localization -\d+(/2)?, folding \d+(/2)?$"),
    "blackening": ("_blackening_unique", verify, "highest_root", _then(lambda h: h[::-1]), r"^survivors \["),
}
_CHECKS = {check.__name__: (name, check) for name, check in verify.QUICK_CHECKS + verify.FULL_CHECKS}


def test_faults_cover_every_check():
    assert {check for check, *_ in FAULTS.values()} == set(_CHECKS)
    assert [name for name, _ in _CHECKS.values()] == list(PASSING_DETAILS)


@pytest.fixture
def clean_memos():
    yield
    localize._point_sums.cache_clear()
    localize._point_record.cache_clear()


@pytest.mark.parametrize("fault", list(FAULTS))
def test_each_check_fails_on_a_fault_it_guards(fault, monkeypatch, clean_memos):
    check, module, name, change, pattern = FAULTS[fault]
    monkeypatch.setattr(verify, "QUICK_CHECKS", ())
    monkeypatch.setattr(verify, "FULL_CHECKS", (_CHECKS[check],))
    [result] = verify.run_checks()
    assert result.passed and result.detail == PASSING_DETAILS[result.name]
    monkeypatch.setattr(module, name, change(getattr(module, name)))
    [result] = verify.run_checks()
    assert result.name == _CHECKS[check][0] and not result.passed
    assert re.search(pattern, result.detail), result.detail
