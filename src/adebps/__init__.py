"""Exact genus-0 BPS invariants of ADE resolutions.

Two independent pipelines over the same marked Dynkin diagram: fold the
positive roots onto curve classes and count fibers, or restrict to the
torus-fixed points and take the ratio of equivariant Euler classes.
Both are exact; on the built-in E8 case they agree class by class.
"""

from .catalog import e8_a5_descriptor, e8_a5_marking, load_case
from .folding import (
    BPSRecord,
    CurveClass,
    LiftedDivisor,
    Marking,
    bps_table,
    divisor_labels,
    lift,
    parse_marking,
    project,
)
from .localize import (
    DescriptorError,
    ExtDecomposition,
    GeometryDescriptor,
    Incidence,
    LocalizationResult,
    SCurve,
    SPoint,
    YPoint,
    bps_from_localization,
    chern_character_at,
    ext_decompose,
    format_descriptor,
    localize_class,
    parse_descriptor,
    point_contribution,
    restriction_weights,
    total_chi,
    validate_descriptor,
)
from .rootsys import (
    DynkinDiagram,
    RootVector,
    build_diagram,
    cartan_pairing,
    enumerate_positive_roots,
    enumerate_positive_roots_bruteforce,
    highest_root,
    is_positive_root,
)
from .symring import (
    EulerClass,
    LaurentPoly,
    Quotient,
    VirtualCharacter,
    euler_class,
    expfactor,
    expfactors,
    to_polynomial,
)

__version__ = "0.1.0"
