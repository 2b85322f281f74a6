"""Sech-envelope construction: phase fields, solution families, residuals
and the first correction."""

from semiwave.asymptotics.fields import (
    FieldJet,
    WkbFields,
    assemble_leading_term,
    envelope_amplitude,
    envelope_rho,
    leading_term_time_derivative,
    psi_via_representation,
)
from semiwave.asymptotics.families import (
    Class1Fields,
    Class1Params,
    Class2Fields,
    Class2Params,
    CylindricalFields,
    CylindricalParams,
    SolitonFields,
    SolitonParams,
    one_soliton,
)
from semiwave.asymptotics.quadrature import Antiderivative
from semiwave.asymptotics.residuals import (
    first_integral_residual,
    hj_residual,
    transport_residuals,
)
from semiwave.asymptotics.corrections import corrected_term_with_dt

__all__ = [
    "Antiderivative",
    "Class1Fields",
    "Class1Params",
    "Class2Fields",
    "Class2Params",
    "CylindricalFields",
    "CylindricalParams",
    "FieldJet",
    "SolitonFields",
    "SolitonParams",
    "WkbFields",
    "assemble_leading_term",
    "corrected_term_with_dt",
    "envelope_amplitude",
    "envelope_rho",
    "first_integral_residual",
    "hj_residual",
    "leading_term_time_derivative",
    "one_soliton",
    "psi_via_representation",
    "transport_residuals",
]
