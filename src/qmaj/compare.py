"""Majorization verdicts from Lorenz curve pairs, plus threshold scans.

f majorizes g when the positive curve of f dominates g's and the negative
curve of f lies below g's at every abscissa, with equal total integrals.
Verdicts are four-way: with a finite comparison tolerance eps a direction
"holds" when no violation exceeds eps, and a holding direction is promoted to
strict dominance only when some gap exceeds ``STRICTNESS * eps`` (separating
real dominance from quadrature noise).

Both checks read the weighted rearrangements of ``qmaj.rearrange``:
``compare`` the Lorenz curves (s, L) of each side, ``statement4_check`` the
sorted keys f/q with the same (s, L), through ``_shifted_integrals``, and
its default u grid from the same keys.  ``ratio_breakpoints`` reads the raw
values and gives that grid by its definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NormalizationError, ScanError
from .grids import ReferenceDistribution, SampledDistribution, same_grid
from .rearrange import (
    LorenzCurve,
    _merged,
    _Rearrangement,
    _rearrange,
    _shifted_integrals,
    curves,
)

DEFAULT_EPS_CMP = 1e-4
DEFAULT_EPS_NORM = 1e-3
STRICTNESS = 10.0
# points of the coarse sweep in scan_threshold; perfbench's scan brackets
# assume 10, so that bisection always takes the same number of steps
PRESCAN = 10


class Outcome(Enum):
    MAJORIZES = "majorizes"
    MAJORIZED_BY = "majorized_by"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Witness:
    """Location of a decisive crossing or dominance gap."""

    s: float
    side: str
    gap: float


@dataclass(frozen=True)
class MajorizationVerdict:
    outcome: Outcome
    witness: Witness | None
    witness_reverse: Witness | None
    tolerance: float

    def __str__(self) -> str:
        msg = self.outcome.value
        if self.witness is not None:
            w = self.witness
            msg += f" (s*={w.s:.6g}, side={w.side}, gap={w.gap:.3g})"
        return msg


def _extreme_gaps(
    pos_f: LorenzCurve, neg_f: LorenzCurve, pos_g: LorenzCurve, neg_g: LorenzCurve,
) -> tuple[Witness, Witness]:
    """Smallest and largest signed gap of f over g on the merged breakpoints.

    A gap is positive where f's positive curve lies above g's or f's negative
    curve lies below g's.
    """
    sp = _merged(pos_f.s, pos_g.s)
    dp = pos_f(sp) - pos_g(sp)
    sn = _merged(neg_f.s, neg_g.s)
    dn = neg_g(sn) - neg_f(sn)
    lo_p, hi_p = int(np.argmin(dp)), int(np.argmax(dp))
    lo_n, hi_n = int(np.argmin(dn)), int(np.argmax(dn))
    lowest = (
        Witness(float(sp[lo_p]), pos_f.side, float(dp[lo_p]))
        if dp[lo_p] <= dn[lo_n]
        else Witness(float(sn[lo_n]), neg_f.side, float(dn[lo_n]))
    )
    highest = (
        Witness(float(sp[hi_p]), pos_f.side, float(dp[hi_p]))
        if dp[hi_p] >= dn[hi_n]
        else Witness(float(sn[hi_n]), neg_f.side, float(dn[hi_n]))
    )
    return lowest, highest


def _require_tolerance(name: str, value: float) -> None:
    # a NaN tolerance makes every check false and a negative one fails even
    # a zero gap: a state against itself would come out incomparable, and a
    # NaN eps_norm would skip the normalization check; an infinite one lets
    # every gap through, so distinct states would come out equivalent
    if not 0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def _reversed(w: Witness) -> Witness:
    # 0 - (a - b) is bitwise b - a, signed zero included
    return Witness(w.s, w.side, 0.0 - w.gap)


def compare_curve_pairs(
    curves_f: tuple[LorenzCurve, LorenzCurve],
    curves_g: tuple[LorenzCurve, LorenzCurve],
    eps_cmp: float = DEFAULT_EPS_CMP,
) -> MajorizationVerdict:
    """Four-way verdict from two (positive, negative) curve pairs.

    The gaps of g over f are those of f over g with the sign flipped, so one
    pass decides both directions: g's worst violation is f's largest gap
    reversed, and g's largest gap is f's worst violation reversed.
    """
    _require_tolerance("eps_cmp", eps_cmp)
    lowest, highest = _extreme_gaps(*curves_f, *curves_g)
    fwd_holds = lowest.gap >= -eps_cmp
    bwd_holds = highest.gap <= eps_cmp
    strict = STRICTNESS * eps_cmp
    if fwd_holds and bwd_holds:
        return MajorizationVerdict(Outcome.EQUIVALENT, None, None, eps_cmp)
    if fwd_holds:
        if highest.gap > strict:
            return MajorizationVerdict(Outcome.MAJORIZES, highest, None, eps_cmp)
        return MajorizationVerdict(Outcome.EQUIVALENT, None, None, eps_cmp)
    if bwd_holds:
        if -lowest.gap > strict:
            return MajorizationVerdict(
                Outcome.MAJORIZED_BY, _reversed(lowest), None, eps_cmp
            )
        return MajorizationVerdict(Outcome.EQUIVALENT, None, None, eps_cmp)
    # crossings in both directions: report where each direction fails
    return MajorizationVerdict(
        Outcome.INCOMPARABLE, lowest, _reversed(highest), eps_cmp
    )


def compare(
    f: SampledDistribution,
    g: SampledDistribution,
    q: ReferenceDistribution | None = None,
    eps_cmp: float = DEFAULT_EPS_CMP,
    eps_norm: float = DEFAULT_EPS_NORM,
) -> MajorizationVerdict:
    """Majorization verdict between f and g (relative to q when given).

    Raises NormalizationError when the total integrals differ by more than
    eps_norm: unequal integrals are a precondition failure, not a verdict.
    """
    _require_tolerance("eps_norm", eps_norm)
    same_grid(f, g)
    # written so that a NaN integral (a NaN or overflowing cell) fails too
    if not abs(f.total_integral - g.total_integral) <= eps_norm:
        raise NormalizationError(
            f"total integrals differ: {f.total_integral:.6g} vs "
            f"{g.total_integral:.6g} (eps_norm={eps_norm:g})"
        )
    return compare_curve_pairs(curves(f, q), curves(g, q), eps_cmp=eps_cmp)


class Statement4Result(NamedTuple):
    forward: bool
    backward: bool


def ratio_breakpoints(
    f: SampledDistribution,
    g: SampledDistribution,
    q: ReferenceDistribution | None = None,
    max_points: int | None = None,
) -> np.ndarray:
    """Candidate u values where the piecewise-linear statement-4 sides kink.

    These are the distinct |values| (entrywise |f|/q ratios in the relative
    case) of both functions, plus 0 and a point beyond the maximum.  With
    ``max_points`` the set is thinned to quantile-spaced representatives.
    """
    if q is None:
        cand = np.abs(np.concatenate([f.values, g.values]))
    else:
        cand = np.abs(np.concatenate([f.values, g.values])) / np.concatenate(
            [q.values, q.values]
        )
    return _bracketed(np.unique(cand[cand > 0]), max_points)


def _key_breakpoints(rearrangements: Sequence[_Rearrangement]) -> np.ndarray:
    """``ratio_breakpoints(f, g, q, max_points=256)`` from the keys of the
    rearrangements of f and g.

    The |keys| of one side are its distinct |f|/q ratios in reverse order, so
    merging them gives the same candidates as a set union over every cell.
    """
    cand = reduce(_merged, (np.abs(r.keys[::-1]) for r in rearrangements))
    return _bracketed(cand[cand > 0], 256)


def _bracketed(cand: np.ndarray, max_points: int | None) -> np.ndarray:
    # sorted distinct positive candidates, thinned, between 0 and 1.5 * max
    if max_points is not None and len(cand) > max_points:
        take = np.linspace(0, len(cand) - 1, max_points).round().astype(int)
        cand = cand[np.unique(take)]
    top = cand[-1] * 1.5 if len(cand) else 1.0
    return np.concatenate([[0.0], cand, [top]])


def statement4_check(
    f: SampledDistribution,
    g: SampledDistribution,
    q: ReferenceDistribution | None = None,
    u_grid: Sequence[float] | None = None,
    eps_cmp: float = DEFAULT_EPS_CMP,
) -> Statement4Result:
    """Check both dominance directions via shifted positive/negative parts.

    Direction f over g requires, for every u in the grid, that the integral
    of (f-uq)+ is at least that of (g-uq)+ and the integral of (f+uq)- is at
    most that of (g+uq)-.  Used as a cross-validation of ``compare``: both
    read the same rearrangement, but statement 4 integrates the shifted parts
    where ``compare`` interpolates curves.  The default u grid is
    ``ratio_breakpoints(f, g, q, max_points=256)``, read off the same keys.
    """
    _require_tolerance("eps_cmp", eps_cmp)
    same_grid(f, g)
    if u_grid is not None:
        u_grid = np.asarray(u_grid, dtype=float)
        if u_grid.size == 0:
            raise ConfigError("u_grid must be nonempty")
        if not (np.isfinite(u_grid) & (u_grid >= 0)).all():
            raise ConfigError("u_grid entries must be finite and >= 0")
    (pf, nf), (pg, ng) = _rearrange(f, q), _rearrange(g, q)
    if u_grid is None:
        u_grid = _key_breakpoints([pf, nf, pg, ng])
    fp, fm = _shifted_integrals(pf, nf, u_grid)
    gp, gm = _shifted_integrals(pg, ng, u_grid)
    fwd = bool((fp >= gp - eps_cmp).all() and (fm <= gm + eps_cmp).all())
    bwd = bool((gp >= fp - eps_cmp).all() and (gm <= fm + eps_cmp).all())
    return Statement4Result(fwd, bwd)


@dataclass(frozen=True)
class ThresholdResult:
    """Bracketed comparability flip along a reference family parameter."""

    parameter: str
    lower: float
    upper: float
    resolution: float
    verdict_lower: Outcome
    verdict_upper: Outcome

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _is_comparable(outcome: Outcome) -> bool:
    return outcome is not Outcome.INCOMPARABLE


def scan_threshold(
    f: SampledDistribution,
    g: SampledDistribution,
    family: Callable[[float], ReferenceDistribution],
    bracket: tuple[float, float],
    resolution: float = 0.01,
    parameter: str = "nbar",
    eps_cmp: float = DEFAULT_EPS_CMP,
) -> ThresholdResult:
    """Bisection on a reference-family parameter for a comparability flip.

    A coarse ``PRESCAN``-point sweep locates the first adjacent pair of
    parameters whose verdicts differ (comparable vs incomparable); bisection
    then narrows the flip below ``resolution``, which must be positive.
    """
    a, b = bracket
    if not (b > a):
        raise ConfigError(f"bad bracket {bracket}")
    # adjacent floats never get closer than their spacing, so bisection
    # towards a zero, negative or NaN resolution would not end
    if not resolution > 0:
        raise ConfigError(f"resolution must be > 0, got {resolution}")
    pts = np.linspace(a, b, PRESCAN)

    def verdict_at(param: float) -> Outcome:
        return compare(f, g, family(param), eps_cmp=eps_cmp).outcome

    outcomes = [verdict_at(p) for p in pts]

    flags = [_is_comparable(o) for o in outcomes]
    flip = next((i for i in range(len(pts) - 1) if flags[i] != flags[i + 1]), None)
    if flip is None:
        raise ScanError(
            f"no comparability sign change for {parameter} in [{a:g}, {b:g}]"
        )
    lo, hi = float(pts[flip]), float(pts[flip + 1])
    out_lo, out_hi = outcomes[flip], outcomes[flip + 1]
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        out_mid = verdict_at(mid)
        if _is_comparable(out_mid) == flags[flip]:
            lo = mid
            out_lo = out_mid
        else:
            hi = mid
            out_hi = out_mid
    return ThresholdResult(parameter, lo, hi, resolution, out_lo, out_hi)
