"""Semiclassical solitary waves for the focusing nonlinear Schrodinger
equation with external fields.

The package builds sech-envelope asymptotic solutions from a complex
eikonal phase pair, integrates the classical centroid dynamics, and checks
both against an independent split-step spectral propagator through residual
scaling in the small parameter, moment concentration, and centroid-tracking
tests.
"""

from semiwave.asymptotics import (
    Antiderivative,
    CallableWkbFields,
    Class1Params,
    Class2Params,
    CorrectionParams,
    CylindricalParams,
    FieldJet,
    SolitonParams,
    WkbFields,
    assemble_leading_term,
    corrected_term_with_dt,
    cylindrical_fields,
    cylindrical_special,
    first_integral_residual,
    hj_residual,
    leading_term_time_derivative,
    one_soliton,
    psi_via_representation,
    separated_class1,
    separated_class2,
    soliton_correction_fields,
    transport_residuals,
)
from semiwave.core import (
    ComplexField,
    Grid,
    PhysParams,
    PotentialSpec,
    apply_momentum,
    eval_potential,
    free_potential,
    inner_product,
    make_axis_offset_grid,
    make_uniform_grid,
    norm_squared,
)
from semiwave.moments import (
    MomentRecord,
    ScalingReport,
    centered_moment,
    compute_moment_record,
    concentration_scaling,
    fit_scaling,
    mass_within_radius,
    mean_momentum,
    mean_position,
)
from semiwave.solver import (
    EvolutionRecord,
    SolverConfig,
    apply_nlse_operator,
    evolve,
    relative_residual,
)

__all__ = [
    "Antiderivative",
    "CallableWkbFields",
    "Class1Params",
    "Class2Params",
    "ComplexField",
    "CorrectionParams",
    "CylindricalParams",
    "EvolutionRecord",
    "FieldJet",
    "Grid",
    "MomentRecord",
    "PhysParams",
    "PotentialSpec",
    "ScalingReport",
    "SolitonParams",
    "SolverConfig",
    "WkbFields",
    "apply_momentum",
    "apply_nlse_operator",
    "assemble_leading_term",
    "centered_moment",
    "compute_moment_record",
    "concentration_scaling",
    "corrected_term_with_dt",
    "cylindrical_fields",
    "cylindrical_special",
    "eval_potential",
    "evolve",
    "first_integral_residual",
    "fit_scaling",
    "free_potential",
    "hj_residual",
    "inner_product",
    "leading_term_time_derivative",
    "make_axis_offset_grid",
    "make_uniform_grid",
    "mass_within_radius",
    "mean_momentum",
    "mean_position",
    "norm_squared",
    "one_soliton",
    "psi_via_representation",
    "relative_residual",
    "separated_class1",
    "separated_class2",
    "soliton_correction_fields",
]

__version__ = "0.1.0"
