"""Rearrangements and Lorenz curves of sampled quasiprobability functions.

Everything here reads the weighted rearrangement of f that ``_rearrange``
builds from one ascending sort of the keys f/q, with q = 1 for the regular
rearrangement.  ``_split`` cuts the sorted keys into both sides: the
negative side is the head of keys below 0, ranked by increasing key, and
the positive side the tail above 0 read backwards, ranked by decreasing
key.  Zero and NaN keys (NaN sorts last) belong to neither.  A cell adds
q_i * dmu_i to the abscissa s (the measure nu) and f_i * dmu_i to the
ordinate L.  The rearrangement is constant on each level set of f/q, so it
keeps one breakpoint per distinct key: the end of each run of tied cells.
Three producers (the product rule, the fold rule against a reference and
the cells against a reference) build an unsorted table of keys with their
nu and mass, and share one unstable argsort of the keys, since the order of
tied cells only changes the rounding of their run's sums.  The regular
rearrangements have no argsort: their keys are the values, so they sort
them directly, the cells or a fold (below) in one sort per orbit size.
Their mass is nu * key, so ``_side`` forms it one side at a time and
cumulates it in place, and no table of masses is kept.

Pairs: a verdict reads the rearrangements of f and of g against the same q,
and neither depends on the other.  ``_ahead(g, q, here)`` runs ``here``
(f's build) on the calling thread while one worker thread builds g's, then
keeps g's sides (below), which the calling thread's ``_rearrange(g, q)``
reads; ``compare.compare`` (through the public ``curves``),
``compare.statement4_check`` and ``monotones.phi_functional`` pass it the
builders they would call alone.  numpy's sorts and array passes release the
GIL, so on two cores a pair takes about the time of its longer build; on
one usable CPU, for kept sides, or for g and q on two grids, nothing is
built ahead.  Each build runs exactly as it would alone, so every result is
bitwise that of building them one after the other.  A failed build of g is
dropped, and ``_rearrange(g, q)`` builds g again and raises its error, so
errors come out in that order too: f's first, once g's build has ended.
The worker calls no public function, so a tracer that wraps those sees
every call, each on the calling thread, and a forked child starts a worker
of its own.  The dominance check (``compare.compare_curve_pairs``) runs on
the calling thread: the blocks it reads are too few to pay for a hand-off.

Kept: ``_rearrange(f, q)`` keeps the sides it returns, and returns them
again for the same f and q objects (q = None for the regular ones, kept
under ``_REGULAR``) rather than building them anew.  A side is a
``LorenzCurve`` with its keys, which keeps its blocks for the dominance
check and statement 4 (``LorenzCurve._blocks``) and its -|keys|.  A
function and a reference are immutable, their arrays read-only, and they
compare by identity, so the kept sides are bitwise what a new build would
give; their arrays are read-only too.  The table is keyed weakly on f, and
within f's entry weakly on q, so an entry lives exactly as long as both its
f and its q: a scan's reference, rendered for one verdict, takes its
operands' sides against it along when it dies, and f never keeps q alive.
Instances hold no part of it, so pickling and copying them are unchanged.
Only calling threads read or write the table, in ``_rearrange`` and
``_ahead``; the worker's ``_build`` never does.

Product rule: when f = f1 x f2 keeps its factors (a rendered ``tensor``)
and q is absent or a product q1 x q2 over the same modes, the level sets of
f/q are the pairs of level sets of f1/q1 and f2/q2.  A pair has key k1*k2,
nu n1*n2 and mass m1*m2, so the rearrangement sorts the pairs of the two
factors' rearrangements rather than the cells: same-sign pairs get a
positive key, mixed pairs a negative one, and the sorted pairs split like
sorted cells.  There are at most as many pairs as cells.  Any other f, such
as a mix of tensors, sorts its cells.
The product keys round differently from the cell keys (f1*f2)/(q1*q2), so
the two paths agree to rounding, not bitwise.  A product of one factor
object with itself, against none or a q whose two factors are one object,
sorts each unordered pair once (``_unordered``): (i, j) and (j, i) share a
key, so i < j enters with twice its nu and mass.  Its keys are the full
table's bitwise, and its sums round differently within tied runs.

Fold rule: when f is built from a fold (``SampledDistribution.fold``: an
octant, a quadrant or a half of the grid) and q, when given, is too, the
rearrangement sorts the fold of the two groups' meet (``grids._meet``),
each entry with nu m*q*dmu and mass m*f*dmu for its orbit of m equal
cells; with no common mirror, the cells.  Regularly the quadrant's and a
half's values are sorted once (one orbit size); the octant's orbits have 4
cells on the diagonal and 8 off it, so each size is sorted on its own and
merged, each diagonal value after the equal off-diagonal ones, so a run of
tied cells always sums in the same order.  A function given by its values
sorts its cells, even where they are symmetric.  The keys are the cell
keys, bitwise; s and L add m equal terms in one product, so they round
differently from the cell sort.

* ``lorenz_curves`` and ``relative_lorenz_curves`` give both sides, each
  (s, L) a piecewise-linear curve, concave (positive) or convex (negative).
* ``_shifted_integral`` searches one side's keys, through the -|keys| it
  keeps, to give with its (s, L) the integral of (f - u*q)+ (positive side)
  or (f + u*q)- (negative side) for many u.  These sides kink only at the
  keys, so ``compare.statement4_check`` reads them at u = 0 and at every key
  of both functions, in the blocks of kinks that can decide it (``_cut``).
* ``piecewise_plus_integral`` and ``piecewise_minus_integral`` evaluate the
  same integrals from their definition, with no sort, as the reference.

Curves are weighted sorts of the sampled values, not inversions of the step
distribution functions: exact for the samples and O(M log M).
"""

from __future__ import annotations

import math
import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .grids import (
    ReferenceDistribution,
    SampledDistribution,
    _cell_sum,
    _entries,
    _meet,
    _orbits,
    same_grid,
)

POSITIVE = "positive"
NEGATIVE = "negative"

DECIMATION_TOL = 1e-6  # sup-norm target of LorenzCurve.decimated


def distribution_function(f: SampledDistribution, t: float) -> float:
    """D_f(t): measure of the cells where f exceeds t."""
    return _level_measure(f, t, above=True)


def codistribution_function(f: SampledDistribution, t: float) -> float:
    """C_f(t): measure of the cells where f lies below t."""
    return _level_measure(f, t, above=False)


def _level_measure(f: SampledDistribution, t: float, above: bool) -> float:
    """The measure of the cells where f lies above t, or below it: on f's
    regular sides, the runs beyond a t of that side's sign or zero, or else
    the non-NaN cells less the other side's runs at or beyond t.  A side's s
    sums cell measures, so each count is s / dmu rounded."""
    if math.isnan(t):
        return 0.0
    dmu = f.grid.cell_measure
    pos, neg = _rearrange(f)
    how = "right" if above else "left"
    own = (t if above else -t) >= 0
    if own == above:  # the runs of keys above t, or at it
        side, k = pos, pos.keys.size - pos.keys[::-1].searchsorted(t, how)
    else:  # the runs of keys below t, or at it
        side, k = neg, neg.keys.searchsorted(t, how)
    runs = round(side.s.item(k) / dmu)
    return (runs if own else int(_cell_sum(f, lambda v: v == v)) - runs) * dmu


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear cumulative curve with breakpoints (s_k, L_k).

    ``s`` starts at 0 and is nondecreasing: a run of cells whose weights are
    too small to move s leaves a zero-width segment.  Beyond the last
    breakpoint the curve continues flat, up to the end of the truncated
    window (its measure, or nu(X) for relative curves).  A rearrangement's
    side is a curve with ``keys``, its ranking keys f/q in rank order (the
    slope of each segment); a decimated curve has none.
    """

    s: np.ndarray
    L: np.ndarray
    side: str
    decimation_error: float = 0.0
    keys: np.ndarray | None = None

    def __post_init__(self):
        for name in ("s", "L"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # what np.interp reads, which copies an array it may not write to: a
        # side's own writeable arrays, which it shows read-only (``_side``)
        object.__setattr__(self, "_xy", (self.s, self.L))

    def __call__(self, at) -> np.ndarray:
        """Evaluate by binary search + linear interpolation (flat plateau)."""
        return np.interp(at, *self._xy)

    @property
    def final(self) -> float:
        return float(self.L[-1])

    def _blocks(self, size: int, kinks: bool = False) -> "_Blocks":
        """``_cut(self, size, kinks)``, kept on the curve for the last size asked."""
        name = "_kept_kinks" if kinks else "_kept_blocks"
        kept = self.__dict__.get(name)
        if kept is None or kept.size != size:
            kept = _cut(self, size, kinks)
            object.__setattr__(self, name, kept)
        return kept

    _search = cached_property(lambda self: -np.abs(self.keys))  # what _shifted_integral searches

    def decimated(self, max_points: int = 100_000) -> "LorenzCurve":
        """Subsample breakpoints, tracking the exact sup-norm error incurred.

        Seeds cut points uniformly in abscissa and in ordinate, then
        bisects every segment whose dropped breakpoints deviate from the
        chord by more than ``DECIMATION_TOL`` until the tolerance or the
        budget is reached.  Relative curves against rapidly decaying
        references have near-vertical heads where slope-based selection
        would fail; the ordinate cuts and the refinement handle those.
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
            if err <= DECIMATION_TOL or len(kept) >= max_points:
                break
            starts, ends = kept[:-1], kept[1:]
            seg_max = np.maximum.reduceat(deviation, starts)
            bad = seg_max > DECIMATION_TOL
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
            keys=None,
        )


class _Blocks(NamedTuple):
    size: int
    s: np.ndarray
    L: np.ndarray
    ends: np.ndarray
    sound: bool
    pad: float
    t: np.ndarray | None = None  # statement 4's kinks (``_cut``)


def _cut(c: LorenzCurve, size: int, kinks: bool = False) -> _Blocks:
    """c's distinct breakpoints (s, L), each the last of its run of equal s
    as np.interp reads them, cut into blocks of ``size``: block k runs from
    index ends[k] to ends[k + 1] (see ``compare.compare_curve_pairs``).
    ``sound`` when s is nondecreasing from 0 or above, L monotone (as a
    rearrangement's side is, ``_side``), and every |s|, |L| and slope below
    2**1000, which no NaN is.  Then np.interp reads c within ``pad`` of the
    polyline through its breakpoints: the slope, its product with x - s_j
    and the sum with L_j round by 12 ulps of max |L| at most, and a slope
    that underflows errs by 2**-1074 (x - s_j) at most.

    With ``kinks`` the points are statement 4's on a side c (``_side``): point
    i at t = keys[i] (t = 0 for i = n), valued L[i] - t*s[i], the shifted
    integral there.  On c's floats P(t) = L[k] - t*s[k], k the count of keys
    beyond t, has slope -s[k] and steps by d_j = L[j+1] - L[j] - keys[j]
    (s[j+1] - s[j]), rounding only, past key j.  ``sound`` when every |s|,
    |L| and m = max |keys[j]| s[j+1] is below 2**1000: then |t*s[k]| <= m
    wherever a side reads c (|t| < |keys[k-1]|), so a value rounds within
    2.01 u (max |L| + m) of P, u = 2**-53.  The rounded sum of |d_j| is at
    least D = sum |d_j| less 0.001 D + 6.1 u max |L|, so ``pad`` covers D,
    those roundings and underflow: D + 16 eps (max |L| + m) + 2**-1072 (n + 2).
    """
    if kinks:
        s, L = c.s, c.L
    else:
        last = np.append(c.s[1:] != c.s[:-1], True)
        s, L = (c.s, c.L) if last.all() else (c.s[last], c.L[last])
    ends = np.append(np.arange(0, len(s) - 1, size), len(s) - 1)
    # a monotone curve's largest |s| and |L| sit at its ends, and a segment
    # rises by 2 * scale at most over 2**-53 of the least positive s at least
    reach, scale = max(abs(c.s[0]), abs(c.s[-1])), max(abs(c.L[0]), abs(c.L[-1]))
    with np.errstate(invalid="ignore", over="ignore"):
        sound = s[0] >= 0 and reach < 2.0**1000 > scale
        if kinks:
            most = -float((c._search * s[1:]).min(initial=0.0))
            pad = float(np.abs(np.diff(L) - np.diff(s) * c.keys).sum()) + 2.0**-1072 * (len(s) + 1)
            pad += 16 * np.finfo(float).eps * (scale + most)
            sound = sound and most < 2.0**1000
            return _Blocks(size, s, L, ends, bool(sound), pad, np.append(c.keys, 0.0))
        sound = sound and (len(s) < 2 or 2 * scale < s[int(s[0] == 0)] * 2.0**947)
        if sound and c._xy[0] is c.s:  # not a side: check that it is monotone
            rise = np.diff(c.L)
            sound = (c.s[1:] >= c.s[:-1]).all() and ((rise >= 0).all() or (rise <= 0).all())
    pad = 16 * np.finfo(float).eps * scale + 2.0**-1072 * (1 + reach)
    return _Blocks(size, s, L, ends, bool(sound), float(pad))


def _at_ends(running: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """0, then ``running`` at each index in ``ends``."""
    out = np.zeros(len(ends) + 1)
    # the indices are in range; mode="raise" would copy through a buffer
    running.take(ends, out=out[1:], mode="clip")
    return out


def _side(
    side: str, keys: np.ndarray, nu: np.ndarray, mass: np.ndarray | None
) -> LorenzCurve:
    # tied cells share the slope f/q, so a breakpoint sits only at the last
    # cell of each run of equal keys, indexed by ``ends``
    last = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    ends = np.flatnonzero(last)
    # a mass that overflows cumulates to inf, which _split refuses
    with np.errstate(over="ignore"):
        if mass is None:
            # a regular side: its mass nu * key is formed for this side
            # alone and cumulated in place, so no table of masses is kept
            running = np.multiply(nu, keys)
            np.cumsum(running, out=running)
        else:
            running = np.cumsum(mass)
    # each running sum is freed before the next one is formed
    L = _at_ends(running, ends)
    del running
    s = _at_ends(np.cumsum(nu), ends)
    keys = keys[ends]
    keys.setflags(write=False)  # kept and shared between calls (see _rearrange)
    curve = LorenzCurve(s.view(), L.view(), side, keys=keys)
    object.__setattr__(curve, "_xy", (s, L))
    return curve


def _split(
    keys: np.ndarray, nu: np.ndarray, mass: np.ndarray | None = None
) -> tuple[LorenzCurve, LorenzCurve]:
    """Both sides from ascending keys (NaN last) with each one's nu and mass.

    The negative side is the head below the first key >= 0, the positive
    side the tail after the last zero key, read backwards; zero and NaN keys
    belong to neither.  A ``mass`` of None stands for nu * keys, the mass of
    a regular rearrangement.  ConfigError if either side's mass sums past
    the largest float.
    """
    lo, end = np.searchsorted(keys, [0.0, np.nan])
    hi = np.searchsorted(keys, 0.0, side="right")
    pos, neg = (
        _side(side, *(None if a is None else a[part][::step] for a in (keys, nu, mass)))
        for side, part, step in ((POSITIVE, slice(hi, end), -1), (NEGATIVE, slice(lo), 1))
    )
    # a side's masses share one sign, so its running sum overflows when its
    # sum does; inf less inf would give the NaN gaps of a verdict that means
    # nothing
    parts = pos.L[-1], neg.L[-1]
    if not all(abs(x) < math.inf for x in parts):
        raise ConfigError(f"part sums must be finite, got {parts[0]} and {parts[1]}")
    return pos, neg


# f -> {q: sides}, with the key _REGULAR for q = None; weakly on f and on
# each q, so an entry dies with either, and the sides hold neither
_kept: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _REGULAR:
    """The key of f's regular sides (q = None); a key must be weakly referable."""


def _kept_sides(
    f: SampledDistribution, q: ReferenceDistribution | None
) -> tuple[LorenzCurve, LorenzCurve] | None:
    return _kept.get(f, {}).get(_REGULAR if q is None else q)


def _rearrange(
    f: SampledDistribution, q: ReferenceDistribution | None = None
) -> tuple[LorenzCurve, LorenzCurve]:
    """The positive and negative rearrangements of f (see the module notes).

    GridMismatchError unless f and q share a grid; then the sides kept for
    the same f and q when there are any, else a build here, which is kept.
    """
    if q is not None:
        same_grid(f, q)
    sides = _kept_sides(f, q)
    return _keep(f, q, _build(f, q)) if sides is None else sides


def _keep(f: SampledDistribution, q: ReferenceDistribution | None, sides):
    # one atomic step, so a thread's entry never replaces another's
    _kept.setdefault(f, weakref.WeakKeyDictionary())[_REGULAR if q is None else q] = sides
    return sides


def _unordered(levels) -> list[np.ndarray]:
    """h x h's keys, nu and mass from h's level sets: (i, i), then i < j."""
    i, j = np.triu_indices(len(levels[0]), 1)
    return [np.concatenate([a * a, a[i] * a[j] * w]) for a, w in zip(levels, (1.0, 2.0, 2.0))]


def _build(
    f: SampledDistribution, q: ReferenceDistribution | None
) -> tuple[LorenzCurve, LorenzCurve]:
    # runs on the worker of _ahead too, so it calls no public function; f
    # and q share a grid
    parts = f.factors
    if q is not None and [r.grid for r in q.factors] != [h.grid for h in parts]:
        parts = ()
    dmu = f.grid.cell_measure
    group = _meet(f.group, f.group if q is None else q.group)
    if parts:
        refs = [None] * len(parts) if q is None else q.factors
        twice = len(parts) == 2 and parts[0] is parts[1] and refs[0] is refs[1]
        keys = nu = mass = np.ones(1)
        for h, r in zip(parts[:1] if twice else parts, refs):
            both = _build(h, r)
            # keys carry the sign of their side: the same-sign pairs of level
            # sets get a positive key k1*k2, the mixed pairs a negative one
            levels = (
                np.concatenate([b.keys for b in both]),
                np.concatenate([np.diff(b.s) for b in both]),
                np.concatenate([np.diff(b.L) for b in both]),
            )
            keys, nu, mass = _unordered(levels) if twice else (
                np.multiply.outer(t, a).ravel() for t, a in zip((keys, nu, mass), levels)
            )
    elif group == "xpt" and q is None:
        # the keys are the octant values and nu is one of two orbit
        # measures: sort each class and put each diagonal key after the
        # equal off-diagonal ones, the stable order of (off, diagonal)
        diag = _orbits(f.grid, group).size == 4.0
        on, off = np.sort(f.fold[diag]), np.sort(f.fold[~diag])
        at = np.searchsorted(off, on, side="right") + np.arange(on.size)
        keys = np.empty(f.fold.shape)
        keys[at] = on
        rest = np.ones(keys.shape, dtype=bool)
        rest[at] = False
        keys[rest] = off
        return _split(keys, np.where(rest, 8.0 * dmu, 4.0 * dmu))
    else:
        # the cells, or the fold of the meet with orbit measures m*dmu
        w = _orbits(f.grid, group).size * dmu if group else dmu
        if q is None:
            # tied keys are equal values of one orbit size: sort the values
            vals = np.sort(_entries(f, group))
            return _split(vals, np.broadcast_to(w, vals.shape))
        fv, qv = _entries(f, group), _entries(q, group)
        keys, nu, mass = fv / qv, w * qv, w * fv
    # gathered one at a time, so each unsorted table is freed in turn
    order = np.argsort(keys)
    keys = keys[order]
    nu = nu[order]
    mass = mass[order]
    del order
    return _split(keys, nu, mass)


def _new_worker() -> None:
    # the one thread of _ahead, which ThreadPoolExecutor starts on
    # the first submit; a forked child has no copy of its parent's, so it
    # makes its own
    global _worker
    _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="qmaj-pair")


_new_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_worker)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _ahead(g: SampledDistribution, q: ReferenceDistribution | None, here: Callable):
    """here() on this thread while the worker builds g's sides against q.

    Returns here's result once g's build has ended, and keeps g's sides when
    that build succeeded (see the module notes).
    """
    mismatched = q is not None and g.grid != q.grid
    if _cpus() < 2 or mismatched or _kept_sides(g, q) is not None:
        return here()
    later = _worker.submit(_build, g, q)
    try:
        return here()
    finally:
        if later.exception() is None:  # waits for g's build
            _keep(g, q, later.result())


def lorenz_curves(f: SampledDistribution) -> tuple[LorenzCurve, LorenzCurve]:
    """Positive and negative Lorenz curves of f on its truncated window."""
    return _rearrange(f)


def relative_lorenz_curves(
    f: SampledDistribution, q: ReferenceDistribution
) -> tuple[LorenzCurve, LorenzCurve]:
    """Lorenz curves of f relative to q, abscissa in the nu measure.

    Cells are ranked by the ratio f/q; a breakpoint contributes q_i*dmu to s
    and f_i*dmu to L, so the endpoints (1 + NV and -NV for normalized f) do
    not depend on q.
    """
    return _rearrange(f, q)


def curves(f: SampledDistribution, q: ReferenceDistribution | None = None):
    """Regular or relative curve pair depending on whether q is given."""
    return lorenz_curves(f) if q is None else relative_lorenz_curves(f, q)


def _shift(u: float, q: ReferenceDistribution | None):
    if not (math.isfinite(u) and u >= 0):
        raise ConfigError(f"u must be finite and >= 0, got {u}")
    return u if q is None else u * q.values


def piecewise_plus_integral(
    f: SampledDistribution, u: float, q: ReferenceDistribution | None = None
) -> float:
    """Integral of (f - u*q)+ over the window (q = 1 when absent): the
    cell-based definition that the sorted paths are tested against."""
    return float(np.maximum(f.values - _shift(u, q), 0.0).sum() * f.grid.cell_measure)


def piecewise_minus_integral(
    f: SampledDistribution, u: float, q: ReferenceDistribution | None = None
) -> float:
    """Integral of (f + u*q)- over the window (q = 1 when absent): the
    cell-based definition that the sorted paths are tested against."""
    return float(np.minimum(f.values + _shift(u, q), 0.0).sum() * f.grid.cell_measure)


def _shifted_integral(side: LorenzCurve, t: np.ndarray) -> np.ndarray:
    """Integral of f - t*q over the cells of a side whose key f/q lies beyond
    t: of (f - u*q)+ on the positive side, t = u >= 0, and of (f + u*q)- on
    the negative side, t = -u <= 0.  They are the first k runs, so it is
    L[k] - t*s[k], k found among the keys, not the slopes: a weight too
    small to move s leaves a zero-width segment whose slope is undefined."""
    k = np.searchsorted(side._search, -np.abs(t), side="left")
    return side.L[k] - t * side.s[k]


def resample_pair(
    pos: LorenzCurve,
    neg: LorenzCurve,
    end: float,
    points: int = 2000,
    s_min: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared-abscissa resampling of a curve pair up to ``end``, for export.

    The abscissa is log spaced from ``s_min`` when it is given (the curves
    start at s = 0), and linear from 0 otherwise.
    """
    if points < 2:
        raise ConfigError(f"need at least 2 resampling points, got {points}")
    if s_min is None:
        grid = np.linspace(0.0, end, points)
    else:
        grid = np.geomspace(s_min, end, points)
    return grid, pos(grid), neg(grid)
