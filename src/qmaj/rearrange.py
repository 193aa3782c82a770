"""Rearrangements and Lorenz curves of sampled quasiprobability functions.

Everything here reads one weighted rearrangement per side of f, built by
``_rearrange``: the cells where f > 0 ranked by decreasing key f/q, and the
cells where f < 0 ranked by increasing key, with q = 1 for the regular
rearrangement.  A cell adds q_i * dmu_i to the abscissa s (the measure nu)
and f_i * dmu_i to the ordinate L.

* ``lorenz_curves`` and ``relative_lorenz_curves`` keep (s, L) of each side
  as a piecewise-linear curve, concave (positive) or convex (negative).
* ``_shifted_integrals`` reads the sorted keys with (s, L) to give the
  integrals of (f - u*q)+ and (f + u*q)- for many u by binary search.
* ``piecewise_plus_integral`` and ``piecewise_minus_integral`` evaluate the
  same integrals from their definition, with no sort, as the reference.

Curves are weighted sorts of the sampled values, not inversions of the step
distribution functions: exact for the samples and O(M log M).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .grids import ReferenceDistribution, SampledDistribution, same_grid

POSITIVE = "positive"
NEGATIVE = "negative"


def distribution_function(f: SampledDistribution, t: float) -> float:
    """D_f(t): measure of the cells where f exceeds t."""
    mask = f.values > t
    return float(np.count_nonzero(mask)) * f.grid.cell_measure


def codistribution_function(f: SampledDistribution, t: float) -> float:
    """C_f(t): measure of the cells where f lies below t."""
    mask = f.values < t
    return float(np.count_nonzero(mask)) * f.grid.cell_measure


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear cumulative curve with breakpoints (s_k, L_k).

    ``s`` starts at 0 and is strictly increasing; beyond the last breakpoint
    the curve continues flat up to ``domain_end`` (the measure of the
    truncated window, nu-rescaled for relative curves).
    """

    s: np.ndarray
    L: np.ndarray
    side: str
    domain_end: float
    truncation_sensitive: bool = False
    decimation_error: float = 0.0

    def __post_init__(self):
        for name in ("s", "L"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __call__(self, at) -> np.ndarray:
        """Evaluate by binary search + linear interpolation (flat plateau)."""
        return np.interp(at, self.s, self.L)

    @property
    def final(self) -> float:
        return float(self.L[-1])

    def slopes(self) -> np.ndarray:
        return np.diff(self.L) / np.diff(self.s)

    def slope_at(self, at: float) -> float:
        """Rearrangement value at cumulative measure ``at``."""
        k = int(np.searchsorted(self.s, at, side="left"))
        if k >= len(self.s):
            return 0.0
        if k == 0:
            k = 1
        return float((self.L[k] - self.L[k - 1]) / (self.s[k] - self.s[k - 1]))

    def decimated(
        self, max_points: int = 100_000, tol: float = 1e-6
    ) -> "LorenzCurve":
        """Subsample breakpoints, tracking the exact sup-norm error incurred.

        Seeds cut points uniformly in abscissa and in ordinate, then
        bisects every segment whose dropped breakpoints deviate from the
        chord by more than ``tol`` until the tolerance or the budget is
        reached.  Relative curves against rapidly decaying references have
        near-vertical heads where slope-based selection would fail; the
        ordinate cuts and the refinement handle those.
        """
        m = len(self.s)
        if m <= max_points:
            return self
        k = max(max_points // 4, 2)
        idx_s = np.linspace(0, m - 1, k).round().astype(int)
        ordinate = self.L if self.L[-1] >= self.L[0] else -self.L
        idx_l = np.searchsorted(
            ordinate, np.linspace(ordinate[0], ordinate[-1], k)
        )
        kept = np.unique(np.concatenate([idx_s, idx_l, [0, m - 1]]))
        kept = np.clip(kept, 0, m - 1)
        err = 0.0
        for _ in range(24):
            deviation = np.abs(np.interp(self.s, self.s[kept], self.L[kept]) - self.L)
            err = float(deviation.max())
            if err <= tol or len(kept) >= max_points:
                break
            starts, ends = kept[:-1], kept[1:]
            seg_max = np.maximum.reduceat(deviation, starts)
            bad = seg_max > tol
            mids = (starts[bad] + ends[bad]) // 2
            mids = mids[(mids > starts[bad]) & (mids < ends[bad])]
            if len(mids) == 0:
                break
            kept = np.unique(np.concatenate([kept, mids]))
        return replace(
            self,
            s=self.s[kept],
            L=self.L[kept],
            decimation_error=max(self.decimation_error, err),
        )


class _Rearrangement(NamedTuple):
    keys: np.ndarray  # ranking keys f/q in rank order
    s: np.ndarray     # cumulative nu measure, s[0] = 0
    L: np.ndarray     # cumulative integral of f, L[0] = 0


def _cumulative(steps: np.ndarray) -> np.ndarray:
    out = np.zeros(len(steps) + 1)
    np.cumsum(steps, out=out[1:])
    return out


def _rearrange(
    f: SampledDistribution, q: ReferenceDistribution | None, side: str
) -> _Rearrangement:
    """The weighted rearrangement of one side of f (see the module notes)."""
    if q is not None:
        same_grid(f, q)
    v = f.values
    mask = v > 0 if side == POSITIVE else v < 0
    vals = v[mask]
    qm = None if q is None else q.values[mask]
    key = vals if qm is None else vals / qm
    # stable sort: ties broken by cell index, so equal-weight permutations of
    # distinct cells cannot change the curve
    order = np.argsort(-key if side == POSITIVE else key, kind="stable")
    # the cell measure is uniform, so only f and q are permuted; the sorted
    # keys are recomputed from them rather than gathered a third time
    dmu = f.grid.cell_measure
    vals = vals[order]
    if qm is None:
        keys, nu = vals, np.full(vals.shape, dmu)
    else:
        qm = qm[order]
        keys, nu = vals / qm, qm * dmu
    return _Rearrangement(keys, _cumulative(nu), _cumulative(vals * dmu))


def _curve(
    f: SampledDistribution, q: ReferenceDistribution | None, side: str
) -> LorenzCurve:
    _, s, L = _rearrange(f, q, side)
    if q is None:
        return LorenzCurve(s, L, side, f.grid.total_measure)
    return LorenzCurve(s, L, side, q.total_nu, truncation_sensitive=not q.integrable)


def lorenz_curves(f: SampledDistribution) -> tuple[LorenzCurve, LorenzCurve]:
    """Positive and negative Lorenz curves of f on its truncated window."""
    return _curve(f, None, POSITIVE), _curve(f, None, NEGATIVE)


def relative_lorenz_curves(
    f: SampledDistribution, q: ReferenceDistribution
) -> tuple[LorenzCurve, LorenzCurve]:
    """Lorenz curves of f relative to q, abscissa in the nu measure.

    Cells are ranked by the ratio f/q; a breakpoint contributes q_i*dmu to s
    and f_i*dmu to L, so the endpoints (1 + NV and -NV for normalized f) do
    not depend on q.
    """
    return _curve(f, q, POSITIVE), _curve(f, q, NEGATIVE)


def curves(f: SampledDistribution, q: ReferenceDistribution | None = None):
    """Regular or relative curve pair depending on whether q is given."""
    return lorenz_curves(f) if q is None else relative_lorenz_curves(f, q)


def piecewise_plus_integral(
    f: SampledDistribution, u: float, q: ReferenceDistribution | None = None
) -> float:
    """Integral of (f - u*q)+ over the window (q = 1 when absent)."""
    if u < 0:
        raise ConfigError(f"u must be >= 0, got {u}")
    shift = u if q is None else u * q.values
    return float(np.maximum(f.values - shift, 0.0).sum() * f.grid.cell_measure)


def piecewise_minus_integral(
    f: SampledDistribution, u: float, q: ReferenceDistribution | None = None
) -> float:
    """Integral of (f + u*q)- over the window (q = 1 when absent)."""
    if u < 0:
        raise ConfigError(f"u must be >= 0, got {u}")
    shift = u if q is None else u * q.values
    return float(np.minimum(f.values + shift, 0.0).sum() * f.grid.cell_measure)


def _shifted_integrals(
    f: SampledDistribution, u: np.ndarray, q: ReferenceDistribution | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of (f - u*q)+ and (f + u*q)- for every u >= 0 at once.

    The cells where f > u*q are those whose key f/q lies strictly above u: the
    first k of the positive rearrangement, so the integral is L[k] - u*s[k].
    The j keys strictly below -u give L[j] + u*s[j] on the negative side.
    The lookup searches the keys, not the curve slopes: a weight too small to
    move s leaves a zero-width segment whose slope is undefined.
    """
    pos = _rearrange(f, q, POSITIVE)
    k = np.searchsorted(-pos.keys, -u, side="left")
    neg = _rearrange(f, q, NEGATIVE)
    j = np.searchsorted(neg.keys, -u, side="left")
    return pos.L[k] - u * pos.s[k], neg.L[j] + u * neg.s[j]


def resample_pair(
    pos: LorenzCurve,
    neg: LorenzCurve,
    points: int = 2000,
    log_spaced: bool = False,
    s_min: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared-abscissa resampling of a curve pair for CSV/plot export.

    Log spacing floors the abscissa at a single cell measure (or at the given
    ``s_min``) since the curves start at s = 0.
    """
    if points < 2:
        raise ConfigError(f"need at least 2 resampling points, got {points}")
    end = max(pos.domain_end, neg.domain_end)
    if log_spaced:
        lo = s_min if s_min is not None else min(
            pos.s[1] if len(pos.s) > 1 else end,
            neg.s[1] if len(neg.s) > 1 else end,
        )
        grid = np.geomspace(lo, end, points)
    else:
        grid = np.linspace(0.0, end, points)
    return grid, pos(grid), neg(grid)
