"""Exact arithmetic for parabolic power-series germs in positive characteristic.

Lower ramification numbers, iterative residues, reduced normal forms, closed
forms for iterate coefficients, and Newton-polygon valuation bounds for
periodic points near a parabolic fixed point, all over exact coefficient rings
(finite fields and Laurent series fields over them).
"""

from .closed_forms import (
    ClosedFormPair,
    MainLemmaReport,
    SemiconjugacyReport,
    chi_xi,
    delta_tower,
    ell_iterate_quadratic,
    iterate_q_closed,
    semiconj_check,
    verify_main_lemma,
)
from .coeff_rings import (
    DEFAULT_TPREC,
    FieldElement,
    FiniteField,
    LaurentRing,
    LaurentScalar,
    root_of_unity,
    smallest_field_with_root,
)
from .errors import *  # noqa: F401,F403
from .formal_series import (
    ParabolicGerm,
    TruncatedSeries,
    identity,
    monomial,
    reduce_and_wideg,
    series,
    zero_series,
)
from .literals import (
    field_to_str,
    parse_field,
    parse_scalar,
    parse_series,
    series_to_str,
)
from .normal_form import (
    NormalFormResult,
    mq_evaluate,
    reduced_leading_pair,
    to_normal_form,
)
from .ramification import (
    ProfileEntry,
    QuasiInvarianceReport,
    RamificationProfile,
    Verdict,
    check_quasi_invariance,
    is_minimally_ramified,
    ramification_lower_bound,
    ramification_profile,
    resit,
)
from .valuation_geometry import (
    BoundCertificate,
    CycleReport,
    NewtonPolygon,
    cycle_valuations,
    newton_polygon,
    periodic_valuation_bound,
)

__version__ = "0.1.0"
