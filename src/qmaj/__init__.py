"""Majorization analysis for quasiprobability distributions on phase-space grids."""

from .compare import (
    MajorizationVerdict,
    Outcome,
    ThresholdResult,
    Witness,
    compare,
    compare_curve_pairs,
    scan_threshold,
    statement4_check,
)
from .errors import QmajError
from .grids import (
    DiscreteSpace,
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
    default_grid,
    truncation_report,
)
from .rearrange import (
    LorenzCurve,
    codistribution_function,
    distribution_function,
    lorenz_curves,
    piecewise_minus_integral,
    piecewise_plus_integral,
    relative_lorenz_curves,
)
from .states import parse_state, pretty, reference, render, wigner_from_wavefunction

__all__ = [
    "DiscreteSpace",
    "GridSpec",
    "LorenzCurve",
    "MajorizationVerdict",
    "Outcome",
    "QmajError",
    "ReferenceDistribution",
    "SampledDistribution",
    "ThresholdResult",
    "Witness",
    "codistribution_function",
    "compare",
    "compare_curve_pairs",
    "default_grid",
    "distribution_function",
    "lorenz_curves",
    "parse_state",
    "piecewise_minus_integral",
    "piecewise_plus_integral",
    "pretty",
    "reference",
    "relative_lorenz_curves",
    "render",
    "scan_threshold",
    "statement4_check",
    "truncation_report",
    "wigner_from_wavefunction",
]

__version__ = "0.1.0"
