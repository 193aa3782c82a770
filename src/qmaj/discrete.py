"""Exact counting-measure majorization: the oracle layer.

Vectors over a finite index set with unit cell weights.  With Fraction (or
int) entries everything here is exact arithmetic, which is the point: these
routines certify the grid-based code.  Relative curves rank entries by the
ratio f/q and measure the abscissa in the q-weighted (nu) measure, so curve
endpoints are q-independent, matching the continuous construction.

``vec_compare`` decides by ``compare``'s own rule with eps = 0, so the oracle
and the float engine share one verdict rule and one witness placement.

Square stochastic matrices cannot be strictly semidoubly stochastic: columns
summing to one force the row total to equal the row count, so rows bounded
by one must all equal one.  Strictness needs more rows than columns.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .compare import _FLOAT_BAND, MajorizationVerdict, Statement4Result, _verdict
from .errors import ConfigError

Number = int | float | Fraction

Curve = list[tuple[Number, Number]]  # breakpoints (s, L), starting at (0, 0)


@dataclass(frozen=True)
class QuasiVector:
    """Finite real vector under the counting measure."""

    entries: tuple[Number, ...]

    def __post_init__(self):
        if not self.entries:
            raise ConfigError("empty quasivector")
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def from_text(cls, text: str, exact: bool = False) -> "QuasiVector":
        conv = Fraction if exact else float
        try:
            return cls(tuple(conv(tok.strip()) for tok in text.split(",")))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad vector literal {text!r}: {exc}")


def _as_entries(f) -> tuple[Number, ...]:
    """The entries of a vector; ConfigError if any is NaN or infinite.

    NaN compares false with everything and an infinite total leaves no sum to
    preserve, so either would give a verdict that means nothing.
    """
    entries = f.entries if isinstance(f, QuasiVector) else tuple(f)
    # holds for every finite int, float and Fraction, fails for NaN and +-inf
    bad = [v for v in entries if not abs(v) < math.inf]
    if bad:
        raise ConfigError(f"vector entries must be finite, got {bad[0]}")
    return entries


def _positive(q) -> tuple[Number, ...]:
    """The entries of a reference vector; ConfigError unless all are > 0."""
    weights = _as_entries(q)
    if any(w <= 0 for w in weights):
        raise ConfigError("reference vector must be strictly positive")
    return weights


def _padded(f, g, q):
    """f and g zero-padded to one length, and the checked reference or None.

    The length is that of the longer input, or of the reference when one is
    given; a reference shorter than either input is refused.  The totals of
    f and g must be equal, exactly for exact entries and within 1e-12 for
    floats, and the sums of each one's positive and of its negative entries
    finite: a part sum past the largest float ends a curve at inf.
    """
    fe, ge = _as_entries(f), _as_entries(g)
    width = max(len(fe), len(ge))
    qe = None
    if q is not None:
        qe = _positive(q)
        if len(qe) < width:
            raise ConfigError("reference vector shorter than the inputs")
        width = len(qe)
    # written so that a NaN difference (totals that overflow) fails too
    if not abs(sum(fe) - sum(ge)) <= _slack(fe, ge):
        raise ConfigError(f"sum mismatch: {sum(fe)} vs {sum(ge)}")
    for v in (fe, ge):
        parts = sum(x for x in v if x > 0), sum(x for x in v if x < 0)
        if not all(abs(x) < math.inf for x in parts):
            raise ConfigError(f"part sums must be finite, got {parts[0]} and {parts[1]}")
    return fe + (0,) * (width - len(fe)), ge + (0,) * (width - len(ge)), qe


def _slack(*vectors) -> Number:
    """Sum tolerance: 0 if every entry is an int or Fraction, else 1e-12."""
    exact = all(isinstance(v, (int, Fraction)) for vec in vectors for v in vec)
    return 0 if exact else 1e-12


def _ratio(value: Number, weight: Number) -> Number:
    # int/int must not silently degrade to float
    if isinstance(value, float) or isinstance(weight, float):
        return value / weight
    return Fraction(value) / Fraction(weight)


def vec_lorenz(f, q: Sequence[Number] | None = None) -> tuple[Curve, Curve]:
    """Exact positive/negative Lorenz curves (relative to q when given).

    The positive curve accumulates entries sorted by decreasing value (ratio
    to q in the relative case), abscissa in counting (nu) measure; the
    negative curve mirrors it.  Breakpoints include the flat extension to the
    measure of the whole index set.
    """
    entries = _as_entries(f)
    k = len(entries)
    if q is None:
        weights: tuple[Number, ...] = tuple(1 for _ in entries)
    else:
        weights = _positive(q)
        if len(weights) != k:
            raise ConfigError("reference vector length mismatch")
    total_nu = sum(weights)

    def build(side_positive: bool) -> Curve:
        items = [
            (entries[i], weights[i])
            for i in range(k)
            if (entries[i] > 0 if side_positive else entries[i] < 0)
        ]
        # sort stability keeps ties in index order, also under reverse=True
        items.sort(key=lambda t: _ratio(t[0], t[1]), reverse=side_positive)
        curve: Curve = [(0, 0)]
        s: Number = 0
        total: Number = 0
        for value, weight in items:
            s = s + weight
            total = total + value
            curve.append((s, total))
        if s != total_nu:
            curve.append((total_nu, total))
        return curve

    return build(True), build(False)


def _eval_curve(curve: Curve, s: Number) -> Number:
    """Exact piecewise-linear evaluation with flat extension."""
    if s <= 0:
        return 0
    xs = [pt[0] for pt in curve]
    k = bisect_left(xs, s)
    if k >= len(xs):
        return curve[-1][1]
    s1, l1 = curve[k]
    if s1 == s:
        return l1
    s0, l0 = curve[k - 1]
    return l0 + (l1 - l0) * _ratio(s - s0, s1 - s0)


def _gaps(curves_f: tuple[Curve, Curve], curves_g: tuple[Curve, Curve]):
    """f's signed gaps over g, and their places (s, side), as two lists.

    ``curves_f`` and ``curves_g`` are (positive, negative) pairs.  The gaps
    are taken at each breakpoint of either curve, signed and ordered as
    ``_verdict`` reads them.
    """
    (cf, cnf), (cg, cng) = curves_f, curves_g
    places, gaps = [], []
    for a, b, sign, side in ((cf, cg, 1, "positive"), (cnf, cng, -1, "negative")):
        for s in sorted({pt[0] for pt in a} | {pt[0] for pt in b}):
            places.append((s, side))
            gaps.append(sign * (_eval_curve(a, s) - _eval_curve(b, s)))
    return places, gaps


def vec_compare(f, g, q: Sequence[Number] | None = None) -> MajorizationVerdict:
    """Four-way verdict between two quasivectors, by ``compare``'s rule.

    Vectors of different lengths are padded with zeros (zeros contribute to
    neither curve side but extend the flat plateau).  Equal totals required,
    exactly for exact entries and within 1e-12 for floats.  The rule reads
    f's gaps over g with eps = 0, so every outcome but equivalent carries a
    witness.  Exact gaps compare as Fractions and put each witness at the
    first breakpoint of its extreme; float gaps use ``compare``'s 8-eps band.
    """
    fe, ge, qe = _padded(f, g, q)
    places, gaps = _gaps(vec_lorenz(fe, qe), vec_lorenz(ge, qe))
    # no slack means exact entries, whose gaps stay Fractions
    exact = not _slack(fe, ge, qe or ())
    values = np.array(gaps, dtype=object if exact else float)

    def place(near: np.ndarray) -> tuple:
        # the places are in (side, s) order already
        return places[int(np.argmax(near))]

    return _verdict(values, place, 0.0, 0 if exact else _FLOAT_BAND)


def vec_statement4(f, g, q: Sequence[Number] | None = None) -> Statement4Result:
    """Exact dominance via shifted positive/negative part sums.

    Both sides are piecewise linear in u with kinks only at the entry values
    (entrywise |f|/q ratios in the relative case), so checking those plus 0
    and one point beyond the maximum is a finite exact certificate of the
    "for all u >= 0" statement.  Equal totals required, as in ``vec_compare``.
    """
    fe, ge, qe = _padded(f, g, q)
    if qe is None:
        qe = (1,) * len(fe)

    def plus(v, u):
        return sum(max(v[i] - u * qe[i], 0) for i in range(len(v)))

    def minus(v, u):
        return sum(min(v[i] + u * qe[i], 0) for i in range(len(v)))

    def holds(a, b):
        return all(
            plus(a, u) >= plus(b, u) and minus(a, u) <= minus(b, u) for u in grid
        )

    ratios = {_ratio(abs(v[i]), qe[i]) for v in (fe, ge) for i in range(len(v))}
    grid = sorted(ratios | {0})
    grid.append(grid[-1] + 1)
    return Statement4Result(holds(fe, ge), holds(ge, fe))


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic nonnegative matrix acting on quasivectors."""

    rows: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if not rows:
            raise ConfigError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ConfigError("ragged matrix")
        if any(v < 0 for r in rows for v in r):
            raise ConfigError("matrix entries must be nonnegative")
        for j in range(width):
            col = [r[j] for r in rows]
            if abs(sum(col) - 1) > _slack(col):
                raise ConfigError(f"column {j} sums to {sum(col)}, not 1")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def is_sds(self) -> bool:
        return all(sum(r) <= 1 + _slack(r) for r in self.rows)

    def is_sqs(self, q: Sequence[Number]) -> bool:
        qe = _as_entries(q)
        if len(qe) != self.shape[1] or len(qe) < self.shape[0]:
            raise ConfigError("reference length must cover matrix dimensions")
        for m, row in enumerate(self.rows):
            total = sum(row[j] * qe[j] for j in range(len(row)))
            if total > qe[m] + _slack(row, qe):
                return False
        return True


def apply_matrix(S: StochasticMatrix, f) -> QuasiVector:
    entries = _as_entries(f)
    m, k = S.shape
    if len(entries) != k:
        raise ConfigError(
            f"matrix width {k} does not match vector length {len(entries)}"
        )
    return QuasiVector(
        tuple(sum(S.rows[i][j] * entries[j] for j in range(k)) for i in range(m))
    )
