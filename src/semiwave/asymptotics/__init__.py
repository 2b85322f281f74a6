"""Sech-envelope construction: phase fields, solution families, residuals
and the first correction."""

from semiwave.asymptotics.fields import (
    CallableWkbFields,
    FieldJet,
    WkbFields,
    assemble_leading_term,
    envelope_amplitude,
    envelope_rho,
    leading_term_time_derivative,
    psi_via_representation,
)
from semiwave.asymptotics.families import (
    Class1Params,
    Class2Params,
    CylindricalParams,
    SolitonParams,
    cylindrical_fields,
    cylindrical_special,
    one_soliton,
    separated_class1,
    separated_class2,
    soliton_correction_fields,
)
from semiwave.asymptotics.quadrature import Antiderivative
from semiwave.asymptotics.residuals import (
    first_integral_residual,
    hj_residual,
    transport_residuals,
)
from semiwave.asymptotics.corrections import (
    CorrectionParams,
    corrected_term_with_dt,
    first_correction_uv,
)

__all__ = [
    "Antiderivative",
    "CallableWkbFields",
    "Class1Params",
    "Class2Params",
    "CorrectionParams",
    "CylindricalParams",
    "FieldJet",
    "SolitonParams",
    "WkbFields",
    "assemble_leading_term",
    "corrected_term_with_dt",
    "cylindrical_fields",
    "cylindrical_special",
    "envelope_amplitude",
    "envelope_rho",
    "first_correction_uv",
    "first_integral_residual",
    "hj_residual",
    "leading_term_time_derivative",
    "one_soliton",
    "psi_via_representation",
    "separated_class1",
    "separated_class2",
    "soliton_correction_fields",
]
