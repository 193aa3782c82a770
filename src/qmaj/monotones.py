"""Schur-convex and Schur-concave functionals of sampled distributions.

Every functional here respects the majorization preorder: when f majorizes g
the Schur-convex entries are at least as large for f.  Entropies use the
natural logarithm throughout.  Purity follows the convention of the grid it
is computed on, scaled so the vacuum comes out at exactly 1.

Most functionals read the cell values directly.  Two read the regular
rearrangements of ``qmaj.rearrange``: ``g_monotone`` the positive Lorenz
curve, and ``phi_functional`` the sorted values of both sides with their
cumulative measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grids import (
    HBAR_HALF,
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
    same_grid,
)
from .rearrange import NEGATIVE, POSITIVE, _rearrange, lorenz_curves


def negative_volume(f: SampledDistribution) -> float:
    """Half the excess of the absolute integral over the integral itself.

    Equals the mass of the negative part; zero exactly for probability
    distributions and convention independent.
    """
    dmu = f.grid.cell_measure
    l1 = float(np.abs(f.values).sum() * dmu)
    return 0.5 * (l1 - f.total_integral)


def lp_norm(f: SampledDistribution, alpha: float) -> float:
    """L^alpha norm; Schur-convex only for alpha >= 1, smaller alpha rejected."""
    if alpha < 1:
        raise ConfigError(
            f"lp_norm requires alpha >= 1 (got {alpha}): |t|^alpha is not "
            "convex over the reals below 1"
        )
    dmu = f.grid.cell_measure
    return float((np.abs(f.values) ** alpha).sum() * dmu) ** (1.0 / alpha)


def purity(f: SampledDistribution) -> float:
    """Squared L2 norm scaled so a vacuum Wigner rendering gives 1.

    The prefactor is pi^n under the hbar=1/2 convention and (2*pi)^n under
    hbar=1; both agree with the trace-of-rho-squared reading of the Wigner
    L2 norm.
    """
    grid = f.grid
    if not isinstance(grid, GridSpec):
        raise ConfigError("purity needs a phase-space grid")
    base = math.pi if grid.hbar == HBAR_HALF else 2.0 * math.pi
    return float(base ** grid.modes * (f.values**2).sum() * grid.cell_measure)


def renyi_entropy(f: SampledDistribution, alpha: float) -> float:
    """alpha-Renyi entropy of |f|, natural log, alpha > 1 only."""
    _require_alpha_above_one(alpha)
    dmu = f.grid.cell_measure
    total = float((np.abs(f.values) ** alpha).sum() * dmu)
    return math.log(total) / (1.0 - alpha)


def tsallis_entropy(f: SampledDistribution, alpha: float) -> float:
    """alpha-Tsallis entropy of |f|, alpha > 1 only."""
    _require_alpha_above_one(alpha)
    dmu = f.grid.cell_measure
    total = float((np.abs(f.values) ** alpha).sum() * dmu)
    return (1.0 - total) / (alpha - 1.0)


def renyi_divergence(
    f: SampledDistribution, q: ReferenceDistribution, alpha: float
) -> float:
    """alpha-Renyi divergence of |f| from the positive reference q."""
    _require_alpha_above_one(alpha)
    same_grid(f, q)
    dmu = f.grid.cell_measure
    total = float(
        (np.abs(f.values) ** alpha * q.values ** (1.0 - alpha)).sum() * dmu
    )
    return math.log(total) / (alpha - 1.0)


def _require_alpha_above_one(alpha: float) -> None:
    if alpha <= 1:
        raise ConfigError(
            f"alpha must be > 1 (got {alpha}): not Schur-concave for "
            "quasiprobability distributions at or below 1"
        )


def extreme_values(f: SampledDistribution) -> tuple[float, float]:
    """(max f+, -min f-): the slopes of the two Lorenz curves at the origin."""
    vmax = float(f.values.max(initial=0.0))
    vmin = float(f.values.min(initial=0.0))
    return max(vmax, 0.0), max(-vmin, 0.0)


def g_monotone(f: SampledDistribution) -> float:
    """Reciprocal of the smallest s where the positive curve reaches 1.

    Returns 0 when the curve never reaches 1 on the truncated window (the
    plateau convention for s = infinity); positive for any function with
    genuine negative mass.
    """
    pos, _ = lorenz_curves(f)
    if pos.final < 1.0:
        return 0.0
    k = int(np.searchsorted(pos.L, 1.0, side="left"))
    if k == 0:
        return math.inf
    slope = (pos.L[k] - pos.L[k - 1]) / (pos.s[k] - pos.s[k - 1])
    s_star = pos.s[k - 1] + (1.0 - pos.L[k - 1]) / slope
    return 1.0 / float(s_star)


def phi_functional(f: SampledDistribution, g: SampledDistribution) -> float:
    """Inner product of the aligned rearrangement pairs of f and g.

    Integrates the product of the decreasing rearrangements of the positive
    parts plus the product of the increasing rearrangements of the negative
    parts, on merged breakpoints.  Schur-convex in either argument;
    phi(f, f) equals the squared L2 norm and phi is symmetric.
    """
    same_grid(f, g)
    total = 0.0
    for side in (POSITIVE, NEGATIVE):
        a, b = _rearrange(f, None, side), _rearrange(g, None, side)
        # a rearrangement takes the value keys[k] on (s[k], s[k+1]]
        edges = np.union1d(a.s[1:], b.s[1:])
        edges = edges[edges <= min(a.s[-1], b.s[-1])]
        widths = np.diff(edges, prepend=0.0)
        i = np.searchsorted(a.s[1:], edges, side="left")
        j = np.searchsorted(b.s[1:], edges, side="left")
        total += float(np.sum(a.keys[i] * b.keys[j] * widths))
    return total


@dataclass(frozen=True)
class MonotoneReport:
    """Named monotone values plus the conventions they were computed under."""

    entries: dict[str, float]
    hbar: str
    alphas: dict[str, float] = field(default_factory=dict)

    def lines(self) -> list[str]:
        return [f"{k}={v:.10g}" for k, v in self.entries.items()]


def monotone_report(
    f: SampledDistribution,
    which: list[str] | None = None,
    q: ReferenceDistribution | None = None,
) -> MonotoneReport:
    """Evaluate a named selection of monotones.

    ``which`` entries: nv, purity, max, min, g, l1, norm:<a>, renyi:<a>,
    tsallis:<a>, divergence:<a> (divergence needs a reference q).
    """
    which = which or ["nv", "purity", "max", "min"]
    entries: dict[str, float] = {}
    alphas: dict[str, float] = {}
    for token in which:
        name, _, arg = token.partition(":")
        name = name.strip()
        if name == "nv":
            entries["nv"] = negative_volume(f)
        elif name == "purity":
            entries["purity"] = purity(f)
        elif name == "max":
            entries["max"] = extreme_values(f)[0]
        elif name == "min":
            entries["min"] = extreme_values(f)[1]
        elif name == "g":
            entries["g"] = g_monotone(f)
        elif name == "l1":
            entries["l1"] = lp_norm(f, 1.0)
        elif name in ("norm", "renyi", "tsallis", "divergence"):
            if not arg:
                raise ConfigError(f"{name} requires an alpha, e.g. {name}:2")
            try:
                alpha = float(arg)
            except ValueError:
                raise ConfigError(f"bad {name} alpha {arg!r}") from None
            key = f"{name}_{arg}"
            alphas[key] = alpha
            if name == "norm":
                entries[key] = lp_norm(f, alpha)
            elif name == "renyi":
                entries[key] = renyi_entropy(f, alpha)
            elif name == "tsallis":
                entries[key] = tsallis_entropy(f, alpha)
            else:
                if q is None:
                    raise ConfigError("divergence requires a reference")
                entries[key] = renyi_divergence(f, q, alpha)
        else:
            raise ConfigError(f"unknown monotone {token!r}")
    hbar = f.grid.hbar if isinstance(f.grid, GridSpec) else "n/a"
    return MonotoneReport(entries, hbar, alphas)
