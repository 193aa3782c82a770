"""Schur-convex and Schur-concave functionals of sampled distributions.

Every functional here respects the majorization preorder: when f majorizes g
the Schur-convex entries are at least as large for f.  Entropies use the
natural logarithm throughout.  Purity follows the convention of the grid it
is computed on, scaled so the vacuum comes out at exactly 1.

The pointwise functionals (negative volume, purity, the norms, entropies
and divergences, and the extreme values) read the sums, masses and span
of ``qmaj.grids``, which read every storage form and build no octant's or
product's cells.  Two read the regular rearrangements of
``qmaj.rearrange``: ``g_monotone`` the positive Lorenz curve, and
``phi_functional`` f's sorted values of each side against the rise of g's
Lorenz curve of that side over each of f's segments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .grids import (
    HBAR_HALF,
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
    _cell_sum,
    _masses,
    _span,
    same_grid,
)
from .rearrange import _ahead, _rearrange, lorenz_curves


def negative_volume(f: SampledDistribution) -> float:
    """The mass of the negative part, the integral of max(-f, 0).

    Half the excess of the absolute integral over the integral itself;
    exactly zero for any nonnegative function, and convention independent.
    """
    return float(_masses(f)[1] * f.grid.cell_measure)


def lp_norm(f: SampledDistribution, alpha: float) -> float:
    """L^alpha norm; Schur-convex only for alpha >= 1, smaller alpha rejected."""
    # NaN fails every comparison, so the range is tested the way round that
    # rejects it; an infinite alpha would give |f|**inf in place of max |f|
    if not 1 <= alpha < math.inf:
        raise ConfigError(
            f"lp_norm requires a finite alpha >= 1 (got {alpha}): |t|^alpha "
            "is not convex over the reals below 1"
        )
    return _alpha_integral(f, alpha) ** (1.0 / alpha)


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
    return float(base ** grid.modes * _cell_sum(f, lambda v: v**2) * grid.cell_measure)


def renyi_entropy(f: SampledDistribution, alpha: float) -> float:
    """alpha-Renyi entropy of |f|, natural log, alpha > 1 only."""
    _require_alpha_above_one(alpha)
    return math.log(_alpha_integral(f, alpha)) / (1.0 - alpha)


def tsallis_entropy(f: SampledDistribution, alpha: float) -> float:
    """alpha-Tsallis entropy of |f|, alpha > 1 only."""
    _require_alpha_above_one(alpha)
    return (1.0 - _alpha_integral(f, alpha)) / (alpha - 1.0)


def renyi_divergence(
    f: SampledDistribution, q: ReferenceDistribution, alpha: float
) -> float:
    """alpha-Renyi divergence of |f| from the positive reference q."""
    _require_alpha_above_one(alpha)
    return math.log(_alpha_integral(f, alpha, q)) / (alpha - 1.0)


def _alpha_integral(
    f: SampledDistribution, alpha: float, q: ReferenceDistribution | None = None
) -> float:
    """The integral of |f|^alpha, weighted by q^(1 - alpha) when q is given."""
    if q is None:
        total = _cell_sum(f, lambda v: np.abs(v) ** alpha)
    else:
        same_grid(f, q)
        total = _cell_sum(f, lambda v, r: np.abs(v) ** alpha * r ** (1.0 - alpha), q)
    return float(total * f.grid.cell_measure)


def _require_alpha_above_one(alpha: float) -> None:
    if not 1 < alpha < math.inf:
        raise ConfigError(
            f"alpha must be finite and > 1 (got {alpha}): not Schur-concave "
            "for quasiprobability distributions at or below 1"
        )


def extreme_values(f: SampledDistribution) -> tuple[float, float]:
    """(max f+, -min f-): the slopes of the two Lorenz curves at the origin.

    A side with no cells gives +0.0, and a NaN cell gives NaN on both sides.
    """
    lo, hi = _span(f)
    return (0.0 if hi <= 0 else hi), (0.0 if lo >= 0 else -lo)


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
    parts.  On each side f's rearrangement takes the value keys[k] on
    (s[k], s[k+1]], where g's rearrangement integrates to the rise of g's
    Lorenz curve L_g(s[k+1]) - L_g(s[k]); the curve is flat past its end,
    where g's rearrangement is 0.  Schur-convex in either argument;
    phi(f, f) equals the squared L2 norm and phi is symmetric.  g's
    rearrangement is built during f's (``rearrange._ahead``).
    """
    same_grid(f, g)
    total = 0.0
    for a, b in zip(_ahead(g, None, lambda: _rearrange(f)), _rearrange(g)):
        rise = np.diff(np.interp(a.s, *b._xy))
        total += float(np.sum(a.keys * rise))
    return total


# the monotones monotone_report knows by name: those of f alone, and those
# of an alpha, which a divergence reads against the reference q
_PLAIN = {
    "nv": negative_volume,
    "purity": purity,
    "max": lambda f: extreme_values(f)[0],
    "min": lambda f: extreme_values(f)[1],
    "g": g_monotone,
    "l1": lambda f: lp_norm(f, 1.0),
}
_OF_ALPHA = {
    "norm": lambda f, alpha, q: lp_norm(f, alpha),
    "renyi": lambda f, alpha, q: renyi_entropy(f, alpha),
    "tsallis": lambda f, alpha, q: tsallis_entropy(f, alpha),
    "divergence": lambda f, alpha, q: renyi_divergence(f, q, alpha),
}


def monotone_report(
    f: SampledDistribution,
    which: list[str] | None = None,
    q: ReferenceDistribution | None = None,
) -> dict[str, float]:
    """Evaluate a named selection of monotones, keyed in request order.

    ``which`` entries: nv, purity, max, min, g, l1, norm:<a>, renyi:<a>,
    tsallis:<a>, divergence:<a> (divergence needs a reference q); an alpha
    monotone is keyed ``<name>_<a>``.
    """
    entries: dict[str, float] = {}
    for token in which or ["nv", "purity", "max", "min"]:
        name, _, arg = token.partition(":")
        name = name.strip()
        if name in _PLAIN:
            entries[name] = _PLAIN[name](f)
        elif name in _OF_ALPHA:
            if not arg:
                raise ConfigError(f"{name} requires an alpha, e.g. {name}:2")
            try:
                alpha = float(arg)
            except ValueError:
                raise ConfigError(f"bad {name} alpha {arg!r}") from None
            if name == "divergence" and q is None:
                raise ConfigError("divergence requires a reference")
            entries[f"{name}_{arg}"] = _OF_ALPHA[name](f, alpha, q)
        else:
            raise ConfigError(f"unknown monotone {token!r}")
    return entries
