"""Majorization verdicts from Lorenz curve pairs, plus threshold scans.

f majorizes g when the positive curve of f dominates g's and the negative
curve of f lies below g's at every abscissa, with equal total integrals.
Verdicts are four-way: with a finite comparison tolerance eps a direction
"holds" when no violation exceeds eps, and a holding direction is promoted to
strict dominance only when some gap exceeds ``STRICTNESS * eps`` (separating
real dominance from quadrature noise).

Both read f's signed gaps over g off the rearrangements of ``qmaj.rearrange``
by one rule: ``compare`` at every breakpoint of either Lorenz curve (s, L)
of a side, each curve at its own and the other interpolated there;
``statement4_check`` at u = 0 and at every key of f and of g, where its
shifted integrals kink, so its flags are ``compare``'s direction flags.
Each reads only the blocks of points that can decide it, and each gap it
reads is bitwise the full reading's (``_readings``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, NormalizationError, ScanError
from .grids import ReferenceDistribution, SampledDistribution, same_grid
from .rearrange import LorenzCurve, _ahead, _rearrange, _shifted_integral, curves

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


# distinct breakpoints per block of the dominance check
BLOCK = 256


class _Reading:
    """f's gaps over g at the points of one function's side cut into blocks,
    ``own`` (``rearrange._cut``), with the other's side of that sign,
    ``other``, read there (interpolated, or as shifted integrals at kinks):
    f's positive side less g's, g's negative less f's, so a gap at a point of
    both is bitwise the same in either reading.  ``lo`` and ``hi`` bound each
    block's gaps (infinite unless both sides are sound); ``done`` flags
    blocks read or all equal their first."""

    def __init__(self, own, other: LorenzCurve, other_cut, own_first: bool):
        self.own, self.other, self.own_first = own, other, own_first
        self.at, self.gaps = [], []
        self.done = np.zeros(len(own.ends) - 1, dtype=bool)
        a, z = self._read(own.ends)
        self.lo, self.hi = -np.inf, np.inf
        if not (own.sound and other_cut.sound):
            return
        slack, e = 2 * (own.pad + other_cut.pad), own.ends
        if own.t is not None:
            # a gap's slope in t, the other's s less the own s, lies within its
            # ends' values, so the gaps lie within half the steepest times the
            # width of the ends' mean, give or take the pads; where both L are
            # flat and no t*s (at most first |t| by last s) moves them, all match
            t, k = own.t[e], np.searchsorted(other._search, -np.abs(own.t[e]), "left")
            sa, sb, la, lb, g = own.s[e], other.s[k], own.L[e], other.L[k], self.gaps[0]
            steep = np.maximum(abs(sb[1:] - sa[:-1]), abs(sb[:-1] - sa[1:])) * abs(np.diff(t))
            half = (0.5 + 4 * np.finfo(float).eps) * steep + slack
            self.lo, self.hi = (g[:-1] + g[1:]) / 2 - half, (g[:-1] + g[1:]) / 2 + half
            self.done = (la[:-1] == la[1:]) & (la[1:] - t[:-1] * sa[1:] == la[1:])
            self.done &= (lb[:-1] == lb[1:]) & (lb[1:] - t[:-1] * sb[1:] == lb[1:])
            return
        # monotone curves keep a block's gaps between its ends' minuends less
        # its ends' subtrahends, up to np.interp's rounding and these bounds'
        self.lo = np.minimum(a[:-1], a[1:]) - np.maximum(z[:-1], z[1:]) - slack
        self.hi = np.maximum(a[:-1], a[1:]) - np.minimum(z[:-1], z[1:]) + slack
        # where both curves are flat np.interp reads one knot's L, so every
        # gap of the block equals its first one, which stands in for them
        flat = np.flatnonzero(np.diff(own.L[e]) == 0)
        j = np.searchsorted(other.s, own.s[e[flat]], "right") - 1
        k = np.searchsorted(other.s, own.s[e[flat + 1]], "right")
        self.done[flat] = other.L[np.maximum(j, 0)] == other.L[np.minimum(k, len(other.s) - 1)]

    def _read(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        own = self.own
        if own.t is None:
            where, mine = own.s[at], own.L[at]
            read = np.interp(where, *self.other._xy)
        else:
            where = own.t[at]
            mine, read = own.L[at] - where * own.s[at], _shifted_integral(self.other, where)
        a, z = (mine, read) if self.own_first else (read, mine)
        self.at.append(where)
        self.gaps.append(a - z)
        return a, z

    def wanted(self, least: float, most: float, eps_cmp: float) -> np.ndarray:
        """The blocks left whose bounds pass eps_cmp where no gap read fails
        it, or reach twice the witness band of a failing side's extreme."""
        band = 2 * _FLOAT_BAND
        low = least + band * max(1.0, -least) if least < -eps_cmp else -eps_cmp
        high = most - band * max(1.0, most) if most > eps_cmp else eps_cmp
        return ((self.lo <= low) | (self.hi >= high)) & ~self.done

    def take(self, blocks: np.ndarray) -> None:
        k = np.flatnonzero(blocks)
        at = self.own.ends[k, None] + np.arange(1, self.own.size)
        self._read(at[at < self.own.ends[k + 1, None]])
        self.done |= blocks


def _readings(sides_f, sides_g, eps_cmp: float, kinks: bool = False) -> list[_Reading]:
    """f's gaps over g, read in blocks of ``BLOCK`` until none is wanted."""
    four = (*sides_f, *sides_g)
    cut = [c._blocks(BLOCK, kinks) for c in four]
    # f's and g's positive sides, then their negative ones
    readings = [
        _Reading(cut[i], four[j], cut[j], first)
        for i, j, first in ((0, 2, True), (2, 0, False), (1, 3, False), (3, 1, True))
    ]
    while True:
        least = min(g.min(initial=np.inf) for r in readings for g in r.gaps)
        most = max(g.max(initial=-np.inf) for r in readings for g in r.gaps)
        wanted = [r.wanted(least, most, eps_cmp) for r in readings]
        if not any(w.any() for w in wanted):
            return readings
        for r, w in zip(readings, wanted):
            r.take(w)


def compare_curve_pairs(
    curves_f: tuple[LorenzCurve, LorenzCurve],
    curves_g: tuple[LorenzCurve, LorenzCurve],
    eps_cmp: float = DEFAULT_EPS_CMP,
) -> MajorizationVerdict:
    """Four-way verdict from two (positive, negative) curve pairs.

    ``_verdict`` decides f's gaps over g at every breakpoint of either curve
    of each side, each curve read at its own breakpoints and the other
    interpolated there, but reads only the blocks of ``BLOCK`` distinct
    breakpoints that can decide it (``_Reading.wanted``).  Where both curves
    are sound (``rearrange._cut``: monotone and finite) a block's ends bound
    its gaps, so the blocks left unread hold no gap that could change the
    outcome or a witness: the verdict is bitwise the full reading's.  When
    one direction holds and the other fails by more than eps_cmp but at most
    ``STRICTNESS * eps_cmp`` (the noise band), the verdict is equivalent.
    """
    _require_tolerance("eps_cmp", eps_cmp)
    readings = _readings(curves_f, curves_g, eps_cmp)
    gaps = np.concatenate([g for r in readings for g in r.gaps])
    at = np.concatenate([s for r in readings for s in r.at])
    split = sum(len(g) for r in readings[:2] for g in r.gaps)

    def place(near: np.ndarray) -> tuple[float, str]:
        # the smallest s of a near gap on the first side with one, positive first
        for side, part in zip((c.side for c in curves_f), (slice(split), slice(split, None))):
            hit = near[part]
            if hit.any():
                return at[part][hit].min(), side

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
    most that of (g+uq)-.  The sides kink only at u = 0 and at the |keys|
    of f and of g on them, so f's signed gaps over g there decide, by
    ``_verdict``'s rule: forward holds when the smallest is >= -eps_cmp,
    backward when the largest is <= eps_cmp.  Only the blocks of ``BLOCK``
    kinks that can decide are read (``rearrange._cut``): the flags are the
    full reading's, and each gap read, the extremes beyond eps_cmp among
    them, is bitwise the full reading's.  The shifted integrals are the
    conjugates of the Lorenz curves, so this cross-validates ``compare``;
    ``piecewise_plus_integral`` and ``piecewise_minus_integral`` give them
    at any u from their definition.  Like ``compare``, raises
    NormalizationError when the total integrals differ by more than
    eps_norm, and builds g's rearrangement during f's (``rearrange._ahead``).
    """
    _require_tolerance("eps_cmp", eps_cmp)
    _require_equal_totals(f, g, eps_norm)
    sides_f = _ahead(g, q, lambda: _rearrange(f, q))
    readings = _readings(sides_f, _rearrange(g, q), eps_cmp, kinks=True)
    gaps = np.concatenate([x for r in readings for x in r.gaps])
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
