"""Majorization analysis for quasiprobability distributions on phase-space grids."""

import ctypes as _ctypes

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


def _keep_freed_pages() -> None:
    # Every verdict allocates and frees several MB of numpy temporaries.
    # glibc serves each block of 128 KiB or more by mmap, or trims the heap
    # top after the operation, so the next operation faults the same pages
    # back in (about 1.8 us per 4 KiB page on a 2-vCPU host).  Here blocks
    # below 16 MiB come from the heap, and freed heap top stays mapped until
    # more than 32 MiB of it is free; larger blocks (a 64^4 cell table) are
    # still unmapped on free.  A 4 MiB line would still map and unmap the
    # 4-11 MB blocks of a CLI request on the 700^2 grid each time, and a
    # 64 MiB trim line raises the CLI's peak RSS by a fifth.  Setting either
    # value turns off glibc's dynamic adjustment of both, so both are set.
    # The worker thread that builds the second operand of a verdict
    # (rearrange._ahead) would get an arena of its own, which keeps its own
    # freed top; with one arena its temporaries come from the main heap and
    # go back to it.  Perfbench peak RSS with the worker, one arena against
    # glibc's default: scan 48.9-49.0 MiB against 50.1-50.5, the CLI
    # 131.5-132.2 against 143.7-144.6 (about 47 and 132 with no worker).
    # Without glibc's mallopt this does nothing.
    try:
        mallopt = _ctypes.CDLL(None).mallopt
        mallopt.argtypes = (_ctypes.c_int, _ctypes.c_int)
        mallopt.restype = _ctypes.c_int
        mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX
    except (OSError, AttributeError, TypeError):
        pass


_keep_freed_pages()
