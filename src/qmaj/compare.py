"""Majorization verdicts from Lorenz curve pairs, plus threshold scans.

f majorizes g when the positive curve of f dominates g's and the negative
curve of f lies below g's at every abscissa, with equal total integrals.
Verdicts are four-way: with a finite comparison tolerance eps a direction
"holds" when no violation exceeds eps, and a holding direction is promoted to
strict dominance only when some gap exceeds ``STRICTNESS * eps`` (separating
real dominance from quadrature noise).

Both checks read the weighted rearrangements of ``qmaj.rearrange``:
``compare`` the Lorenz curves (s, L) of each side, at every breakpoint of
either curve, each curve at its own and the other interpolated there;
``statement4_check`` the sorted keys f/q with the same (s, L), through
``_shifted_integral``, at u = 0 and at every key of f and of g, where its
sides kink.  Both decide f's signed gaps over g by the same rule, so
statement 4's flags are the direction flags of ``compare``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NormalizationError, ScanError
from .grids import ReferenceDistribution, SampledDistribution, same_grid
from .rearrange import (
    LorenzCurve,
    _ahead,
    _both,
    _Rearrangement,
    _rearrange,
    _shifted_integral,
    curves,
)

DEFAULT_EPS_CMP = 1e-4
DEFAULT_EPS_NORM = 1e-3
STRICTNESS = 10.0
# points of the coarse sweep in scan_threshold, which stops at the first
# flip; perfbench's scan brackets assume 10, so that bisection always takes
# the same number of steps
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


# a float witness sits at the first gap within this times max(1, |extreme|)
# of its extreme, so rounding does not pick the place on a flat plateau
_FLOAT_BAND = 8.0 * np.finfo(float).eps


def _verdict(
    gaps: np.ndarray,
    place: Callable[[np.ndarray], tuple],
    eps_cmp: float,
    band: float,
) -> MajorizationVerdict:
    """Four-way verdict from f's signed gaps over g, placed by ``place``.

    A gap is positive where f's positive curve lies above g's or f's
    negative curve lies below g's.  ``place(near)`` gives (s, side) of the
    first gap flagged in ``near``, in (side, s) order: the positive side
    first, s ascending.  g's gaps over f are these negated, so one array
    decides both directions.  The first rule that applies decides: f
    majorizes g when no gap is below -eps_cmp and one exceeds
    ``STRICTNESS * eps_cmp``; the mirror case gives majorized_by; one
    holding direction gives equivalent; none gives incomparable.  The rules
    read the extreme gaps themselves, so exact gaps (an object array of
    Fractions) compare exactly.  A witness sits at the first gap within
    ``band * max(1, |extreme|)`` of its extreme, or at the first NaN, which
    is an extreme of both kinds.
    """

    def witness(i: int, sign: int, reverse: bool = False) -> Witness:
        # sign is -1 for the smallest gap and +1 for the largest, so one
        # comparison finds the near ones; a NaN is near nothing but the
        # NaNs; an int band of 0 keeps an exact bound exact
        gap = gaps[i]
        if gap != gap:
            near = gaps != gaps
        else:
            bound = gap - sign * band * max(1, abs(gap))
            near = gaps >= bound if sign > 0 else gaps <= bound
        s, side = place(near)
        # g's gap over f: 0 - (a - b) is bitwise b - a, signed zero included
        return Witness(float(s), side, 0.0 - float(gap) if reverse else float(gap))

    # argmin and argmax pick a NaN of a float array that holds one
    lo, hi = int(np.argmin(gaps)), int(np.argmax(gaps))
    fwd_holds, bwd_holds = gaps[lo] >= -eps_cmp, gaps[hi] <= eps_cmp
    strict = STRICTNESS * eps_cmp
    if fwd_holds and gaps[hi] > strict:
        found = Outcome.MAJORIZES, witness(hi, 1), None
    elif bwd_holds and -gaps[lo] > strict:
        found = Outcome.MAJORIZED_BY, witness(lo, -1, reverse=True), None
    elif fwd_holds or bwd_holds:
        found = Outcome.EQUIVALENT, None, None
    else:
        # crossings in both directions: report where each direction fails
        found = Outcome.INCOMPARABLE, witness(lo, -1), witness(hi, 1, reverse=True)
    return MajorizationVerdict(*found, eps_cmp)


def _require_tolerance(name: str, value: float) -> None:
    # a NaN tolerance makes every check false and a negative one fails even
    # a zero gap: a state against itself would come out incomparable, and a
    # NaN eps_norm would skip the normalization check; an infinite one lets
    # every gap through, so distinct states would come out equivalent
    if not 0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def _require_equal_totals(
    f: SampledDistribution, g: SampledDistribution, eps_norm: float
) -> None:
    """Raise unless f and g share a grid and their integrals agree to eps_norm."""
    _require_tolerance("eps_norm", eps_norm)
    same_grid(f, g)
    # written so that a NaN integral (a NaN or overflowing cell) fails too
    if not abs(f.total_integral - g.total_integral) <= eps_norm:
        raise NormalizationError(
            f"total integrals differ: {f.total_integral:.6g} vs "
            f"{g.total_integral:.6g} (eps_norm={eps_norm:g})"
        )


def _run_ends(c: LorenzCurve) -> tuple[np.ndarray | slice, int]:
    """What picks c's distinct breakpoints from its s and L, and their count.

    Each is the last of its run of equal s, which is where ``np.interp``
    reads the curve; a slice (no copy) when every s is distinct.
    """
    last = np.ones(c.s.shape, dtype=bool)
    np.not_equal(c.s[1:], c.s[:-1], out=last[:-1])
    n = int(np.count_nonzero(last))
    return (slice(None) if n == last.size else last), n


def _reading(
    own: tuple[LorenzCurve, LorenzCurve],
    picks: tuple[np.ndarray | slice, np.ndarray | slice],
    other: tuple[LorenzCurve, LorenzCurve],
    of_f: bool,
    out: np.ndarray,
) -> None:
    """f's gaps over g at one pair's distinct breakpoints, positive side first.

    ``own`` is f's pair when ``of_f``, else g's, read at the breakpoints
    that ``picks`` selects; ``other`` is the other pair, interpolated there.
    f's positive curve less g's, g's negative less f's, each as one
    subtraction, so a gap at a breakpoint of both curves is bitwise the same
    in either pair's reading.  Calls numpy only.
    """
    at = 0
    for c, pick, curve, own_first in zip(own, picks, other, (of_f, not of_f)):
        read = np.interp(c.s[pick], curve.s, curve.L)
        part = out[at : at + len(read)]
        np.subtract(*((c.L[pick], read) if own_first else (read, c.L[pick])), out=part)
        at += len(read)
        del read  # before the next side's reading is allocated


def compare_curve_pairs(
    curves_f: tuple[LorenzCurve, LorenzCurve],
    curves_g: tuple[LorenzCurve, LorenzCurve],
    eps_cmp: float = DEFAULT_EPS_CMP,
) -> MajorizationVerdict:
    """Four-way verdict from two (positive, negative) curve pairs.

    ``_verdict`` decides f's gaps over g at every breakpoint of either curve
    of each side, each curve read at its own breakpoints and the other
    interpolated there.  f's reading runs on the worker thread of
    ``rearrange._both`` while the calling thread runs g's.  So when one
    direction holds and the other fails by more than eps_cmp but at most
    ``STRICTNESS * eps_cmp`` (the noise band), the verdict is equivalent.
    """
    _require_tolerance("eps_cmp", eps_cmp)
    # gaps holds four parts: f's positive and negative breakpoints, then g's
    four = (*curves_f, *curves_g)
    picks, sizes = zip(*map(_run_ends, four))
    starts = np.cumsum((0, *sizes))
    gaps = np.empty(starts[-1])
    _both(
        partial(_reading, curves_f, picks[:2], curves_g, True, gaps[: starts[2]]),
        partial(_reading, curves_g, picks[2:], curves_f, False, gaps[starts[2] :]),
    )

    def place(near: np.ndarray) -> tuple[float, str]:
        # the first near gap of each part; of a side's two, the one at the
        # smaller s, f's on a tie (the same s and gap)
        for k, side in enumerate(c.side for c in curves_f):
            found = []
            for j in (k, k + 2):
                first = int(np.argmax(near[starts[j] : starts[j + 1]]))
                if near[starts[j] + first]:
                    found.append(four[j].s[picks[j]][first])
            if found:
                return min(found), side

    return _verdict(gaps, place, eps_cmp, _FLOAT_BAND)


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
    g's rearrangement is built during f's (``rearrange._ahead``).
    """
    _require_equal_totals(f, g, eps_norm)
    curves_f = _ahead(g, q, lambda: curves(f, q))
    return compare_curve_pairs(curves_f, curves(g, q), eps_cmp=eps_cmp)


class Statement4Result(NamedTuple):
    forward: bool
    backward: bool


def _kink_gaps(a: _Rearrangement, b: _Rearrangement) -> np.ndarray:
    """a's shifted integral less b's, both of one side, at 0 and at every key.

    Between keys both integrals are linear in u, and past the largest |key|
    both vanish, so these gaps decide the sign for every u >= 0.  Each
    function's own keys need no search (see ``_shifted_integral``).
    """
    at = np.append(a.keys, 0.0)
    own_b = b.L[:-1] - b.keys * b.s[:-1]
    return np.concatenate([
        a.L - at * a.s - _shifted_integral(b, at),
        _shifted_integral(a, b.keys) - own_b,
    ])


def statement4_check(
    f: SampledDistribution,
    g: SampledDistribution,
    q: ReferenceDistribution | None = None,
    eps_cmp: float = DEFAULT_EPS_CMP,
    eps_norm: float = DEFAULT_EPS_NORM,
) -> Statement4Result:
    """Check both dominance directions via shifted positive/negative parts.

    Direction f over g requires, for every u >= 0, that the integral of
    (f-uq)+ is at least that of (g-uq)+ and the integral of (f+uq)- is at
    most that of (g+uq)-.  Each side is evaluated at u = 0 and at every
    |key| of f and of g on that side, where it kinks, so the check is exact
    on the sampled functions.  f's signed gaps over g, both sides, are read
    by ``_verdict``'s rule: forward holds when the smallest is >= -eps_cmp,
    backward when the largest is <= eps_cmp.  The shifted integrals are the
    conjugates of the Lorenz curves, so these are ``compare``'s direction
    flags, reached by integrating the shifted parts where ``compare``
    interpolates curves: the check cross-validates it.
    ``piecewise_plus_integral`` and ``piecewise_minus_integral`` give the
    sides at any u from their definition.  Like ``compare``, raises
    NormalizationError when the total integrals differ by more than
    eps_norm, and builds g's rearrangement during f's (``rearrange._ahead``).
    """
    _require_tolerance("eps_cmp", eps_cmp)
    _require_equal_totals(f, g, eps_norm)
    pf, nf = _ahead(g, q, lambda: _rearrange(f, q))
    pg, ng = _rearrange(g, q)
    # f over g needs (f+uq)- below (g+uq)-, so the negative side is g's less f's
    gaps = np.concatenate([_kink_gaps(pf, pg), _kink_gaps(ng, nf)])
    return Statement4Result(bool(gaps.min() >= -eps_cmp), bool(gaps.max() <= eps_cmp))


@dataclass(frozen=True)
class ThresholdResult:
    """Bracketed comparability flip along a reference family parameter."""

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
    eps_cmp: float = DEFAULT_EPS_CMP,
) -> ThresholdResult:
    """Bisection on a reference-family parameter for a comparability flip.

    A coarse ``PRESCAN``-point sweep, walked from ``bracket[0]`` up, stops
    at the first adjacent pair of parameters whose verdicts differ
    (comparable vs incomparable); bisection then narrows that flip below
    ``resolution``, which must be positive.  ``family`` is never called past
    the point that closes the flip, so an error it would raise there does
    not surface.  Without a flip all ``PRESCAN`` points are decided before
    ``ScanError`` is raised.
    """
    a, b = bracket
    # before any reference renders: an infinite end gives NaN parameters
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ConfigError(f"bracket must be finite with lo < hi, got {bracket}")
    # adjacent floats never get closer than their spacing, so bisection
    # towards a zero, negative or NaN resolution would not end
    if not resolution > 0:
        raise ConfigError(f"resolution must be > 0, got {resolution}")
    pts = np.linspace(a, b, PRESCAN)

    def verdict_at(param: float) -> Outcome:
        return compare(f, g, family(param), eps_cmp=eps_cmp).outcome

    # the first flip closes at the first point whose comparability differs
    # from its left neighbour's, so no verdict past it is needed
    out_lo = verdict_at(pts[0])
    lo_comparable = _is_comparable(out_lo)
    for k in range(1, PRESCAN):
        out_hi = verdict_at(pts[k])
        if _is_comparable(out_hi) != lo_comparable:
            break
        out_lo = out_hi
    else:
        raise ScanError(f"no comparability sign change in [{a:g}, {b:g}]")
    lo, hi = float(pts[k - 1]), float(pts[k])
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        out_mid = verdict_at(mid)
        if _is_comparable(out_mid) == lo_comparable:
            lo = mid
            out_lo = out_mid
        else:
            hi = mid
            out_hi = out_mid
    return ThresholdResult(lo, hi, resolution, out_lo, out_hi)
