"""Exact genus-0 BPS invariants of ADE resolutions.

Two independent pipelines over the same marked Dynkin diagram: fold the
positive roots onto curve classes and count fibers, or restrict to the
torus-fixed points and take the ratio of equivariant Euler classes.
Both are exact; on the built-in E8 case they agree class by class.

``import adebps`` loads no submodule: each public name below is imported
from its module on first use (PEP 562) and then kept in this namespace.
"""

from importlib import import_module

_EXPORTS = {
    "catalog": ("e8_a5_descriptor", "e8_a5_marking", "load_case"),
    "folding": (
        "BPSRecord", "CurveClass", "LiftedDivisor", "Marking", "bps_table",
        "divisor_labels", "lift", "parse_marking", "project",
    ),
    "localize": (
        "DescriptorError", "ExtDecomposition", "GeometryDescriptor", "Incidence",
        "LocalizationResult", "SCurve", "SPoint", "YPoint", "bps_from_localization",
        "chern_character_at", "ext_decompose", "format_descriptor", "localize_class",
        "parse_descriptor", "point_contribution", "restriction_weights", "total_chi",
        "validate_descriptor",
    ),
    "rootsys": (
        "DynkinDiagram", "RootVector", "build_diagram", "cartan_pairing",
        "enumerate_positive_roots", "enumerate_positive_roots_bruteforce",
        "highest_root", "is_positive_root",
    ),
    "symring": (
        "EulerClass", "LaurentPoly", "Quotient", "VirtualCharacter", "euler_class",
        "expfactor", "expfactors", "to_polynomial",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
