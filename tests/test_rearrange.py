from __future__ import annotations

import copy
import gc
import itertools
import math
import pickle
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from qmaj import grids, monotones, rearrange, states
from qmaj.compare import compare, scan_threshold, statement4_check
from qmaj.errors import ConfigError
from qmaj.grids import (
    DiscreteSpace,
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
    _orbits,
)
from qmaj.rearrange import (
    DECIMATION_TOL,
    NEGATIVE,
    POSITIVE,
    _ahead,
    _rearrange,
    _shifted_integral,
    _split,
    codistribution_function,
    distribution_function,
    lorenz_curves,
    piecewise_minus_integral,
    piecewise_plus_integral,
    relative_lorenz_curves,
    resample_pair,
)

# numpy 2.0 renamed np.trapz to np.trapezoid; pyproject.toml allows numpy 1.23
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def slopes(curve) -> np.ndarray:
    """Slope of each segment of a curve: the rearrangement values in order."""
    return np.diff(curve.L) / np.diff(curve.s)


def slope_at(curve, at: float) -> float:
    """Rearrangement value of a curve at cumulative measure ``at``."""
    k = max(int(np.searchsorted(curve.s, at, side="left")), 1)
    if k >= len(curve.s):
        return 0.0
    return float((curve.L[k] - curve.L[k - 1]) / (curve.s[k] - curve.s[k - 1]))


@pytest.fixture(scope="module")
def strip_indicator():
    """Indicator of the strip 0 <= x <= 1 on the window [-1, 1]^2."""
    spec = GridSpec(modes=1, half_width=1.0, points_per_axis=100)
    x = spec.mesh()[0]
    vals = np.broadcast_to((x >= 0.0) & (x <= 1.0), spec.shape).astype(float)
    return SampledDistribution(spec, vals.ravel())


def test_distribution_function_indicator(strip_indicator):
    # level set {f > 1/2} is the strip of area 1 x 2
    assert distribution_function(strip_indicator, 0.5) == pytest.approx(2.0)
    assert codistribution_function(strip_indicator, 0.5) == pytest.approx(2.0)


def test_distribution_function_above_max(strip_indicator):
    assert distribution_function(strip_indicator, 1.0) == 0.0
    assert codistribution_function(strip_indicator, 0.0) == 0.0


def test_distribution_functions_count_cells(zoo):
    # they read the regular sides, which a fold, a product and its unordered
    # pairs each build their own way
    rng = np.random.default_rng(11)
    two = GridSpec(2, 5.0, 32)
    tensors = [
        states.render(s, two)
        for s in ("tensor(fock:1, fock:1)", "tensor(fock:2, cat(alpha=1))")
    ]
    for f in [*zoo.values(), *tensors]:
        v = f.values
        ts = np.concatenate([
            rng.uniform(v.min(), v.max(), 20),
            rng.choice(v, 20),
            [np.nan, 0.0, -0.0, np.inf, -np.inf],
        ])
        for t in ts:
            above = float(np.count_nonzero(v > t)) * f.grid.cell_measure
            below = float(np.count_nonzero(v < t)) * f.grid.cell_measure
            assert distribution_function(f, t) == above
            assert codistribution_function(f, t) == below
    # cells holding NaN lie neither above nor below any t
    space = DiscreteSpace(4)
    f = SampledDistribution(space, np.array([1.0, np.nan, -1.0, 2.0]))
    assert distribution_function(f, 0.0) == 2.0
    assert codistribution_function(f, 0.0) == 1.0


def test_vacuum_distribution_function():
    # invert (2/pi) exp(-2 r^2) > t: a disk of area -(pi/2) ln(pi t / 2).
    # Level-set areas converge like Delta^1.5, so this oracle needs a finer
    # grid than the comparison default to reach 1e-3.
    fine = states.render("vacuum", GridSpec(modes=1, half_width=7.0, points_per_axis=2100))
    for t in (0.05, 0.2, 0.5):
        expected = -(math.pi / 2.0) * math.log(math.pi * t / 2.0)
        assert distribution_function(fine, t) == pytest.approx(expected, abs=1e-3)


def test_fock1_negative_region_area():
    # W of |1> is negative inside the root of 1 - 4 r^2, a disk of area pi/4
    fine = states.render("fock:1", GridSpec(modes=1, half_width=7.0, points_per_axis=2100))
    area = codistribution_function(fine, 0.0)
    assert area == pytest.approx(math.pi / 4.0, abs=2e-3)


def test_vacuum_lorenz_closed_form(fock):
    pos, neg = lorenz_curves(fock[0])
    s = np.linspace(0.0, 20.0, 4001)
    np.testing.assert_allclose(pos(s), 1.0 - np.exp(-2.0 * s / math.pi), atol=1e-3)
    assert len(neg.s) == 1 and neg.final == 0.0


def test_probability_distribution_curves(half_grid):
    f = states.render("thermal(nbar=0.4)", half_grid)
    pos, neg = lorenz_curves(f)
    assert neg.final == 0.0
    assert pos.final == pytest.approx(1.0, abs=1e-4)


def test_fock4_curve_endpoints(fock):
    pos, neg = lorenz_curves(fock[4])
    assert pos.final == pytest.approx(1.596, abs=5e-3)  # 1 + negative volume
    assert neg.final == pytest.approx(-0.596, abs=5e-3)


def test_endpoint_identity(zoo):
    # L+(end) - total = -L-(end) = NV exactly in cell arithmetic
    for f in zoo.values():
        pos, neg = lorenz_curves(f)
        nv = monotones.negative_volume(f)
        assert pos.final - f.total_integral == pytest.approx(nv, abs=1e-12)
        assert -neg.final == pytest.approx(nv, abs=1e-12)


def test_curve_shapes_exact(zoo):
    # slopes are the sorted values themselves, so concavity/convexity holds
    # by construction; recovering slopes from the cumulative sums reintroduces
    # rounding at the eps * |L| / cell-measure scale
    eps = np.finfo(float).eps
    for f in zoo.values():
        pos, neg = lorenz_curves(f)
        if len(pos.s) > 2:
            tol = 64 * eps * pos.final / np.diff(pos.s).min()
            assert (np.diff(slopes(pos)) <= tol).all()
        if len(neg.s) > 2:
            tol = 64 * eps * abs(neg.final) / np.diff(neg.s).min()
            assert (np.diff(slopes(neg)) >= -tol).all()


def test_equimeasurability(half_grid, fock, zoo, vacuum_ref):
    # permuted copies keep the rearrangement, regular and against the
    # permuted reference.  Copies never fold, so the regular one sorts the
    # same values: bitwise, also for an original that does not fold.  A
    # folded original rounds its sums differently (pinned by _check_sides).
    rng = np.random.default_rng(11)
    perms = [rng.permutation(half_grid.size) for _ in range(2)]
    for f in (zoo["cat2"], fock[4]):
        copies = [SampledDistribution(half_grid, f.values[p]) for p in perms]
        refs = [ReferenceDistribution(half_grid, vacuum_ref.values[p]) for p in perms]
        assert all(c.fold is None for c in copies)
        bitwise = slice(0 if f.fold is None else 1, None)
        for sides in zip(*(_rearrange(g) for g in (f, *copies))):
            assert len({r.keys.tobytes() for r in sides}) == 1
            assert len({(r.s.tobytes(), r.L.tobytes()) for r in sides[bitwise]}) == 1
        for c, q in zip(copies, refs):
            for x, y in zip(_rearrange(f, vacuum_ref), _rearrange(c, q)):
                assert x.keys.tobytes() == y.keys.tobytes()
        _check_sides(f)


def test_relative_reduces_to_regular(half_grid, fock, zoo):
    # q = 1 built from its octant against an octant f, from its quadrant
    # against a quadrant f, and from its values against cells that do not
    # fold
    octant_ones = ReferenceDistribution(half_grid, None, fold=np.ones(61425))
    quadrant_ones = ReferenceDistribution(half_grid, None, fold=np.ones(122500), group="xp")
    ones = ReferenceDistribution(half_grid, np.ones(half_grid.size))
    cells = SampledDistribution(half_grid, zoo["cat2"].values)
    cases = ((fock[4], octant_ones), (zoo["cat2"], quadrant_ones), (cells, ones))
    for f, q in cases:
        for a, b in zip(_rearrange(f, q), _rearrange(f)):
            assert a.keys.tobytes() == b.keys.tobytes()
        rel = relative_lorenz_curves(f, q)
        reg = lorenz_curves(f)
        for a, b in zip(rel, reg):
            if f.group != "xpt":  # one orbit size: tied entries are alike
                np.testing.assert_array_equal(a.s, b.s)
                np.testing.assert_array_equal(a.L, b.L)
                continue
            # the regular octant sort puts tied cells in a fixed order, the
            # relative one's argsort in its own, so the sums of a run that
            # mixes both orbit sizes round differently
            for x, y in ((a.s, b.s), (a.L, b.L)):
                assert np.abs(x - y).max() <= 4 * np.spacing(abs(y[-1]))


def test_relative_grid_mismatch(half_grid, fock):
    other = GridSpec(modes=1, half_width=7.0, points_per_axis=100)
    q = states.reference("vacuum", other)
    from qmaj.errors import GridMismatchError

    with pytest.raises(GridMismatchError):
        relative_lorenz_curves(fock[1], q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_husimi_relative_rearrangement_slopes(n):
    # pointwise rearrangement values converge slower than the curves they
    # integrate to; the 1e-3 check needs the finer sampling
    fine = GridSpec(modes=1, half_width=7.0, points_per_axis=2100)
    qn = states.render(states.Fock(n), fine, rep="husimi")
    q0 = states.reference("vacuum", fine, rep="husimi")
    pos, _ = relative_lorenz_curves(qn, q0)
    for u in (0.2, 0.5, 0.8):
        expected = (-math.log(u)) ** n / math.factorial(n)
        assert slope_at(pos, u) == pytest.approx(expected, abs=1e-3)


@pytest.mark.parametrize("n", [1, 3])
def test_husimi_relative_curve_closed_form(half_grid, n):
    qn = states.render(states.Fock(n), half_grid, rep="husimi")
    q0 = states.reference("vacuum", half_grid, rep="husimi")
    pos, _ = relative_lorenz_curves(qn, q0)
    s = np.linspace(1e-6, 1.0, 2000)
    expected = s * (
        1.0
        + sum((-np.log(s)) ** k / math.factorial(k) for k in range(1, n + 1))
    )
    np.testing.assert_allclose(pos(s), expected, atol=1e-3)


def test_piecewise_plus_at_zero(zoo):
    for f in zoo.values():
        nv = monotones.negative_volume(f)
        assert piecewise_plus_integral(f, 0.0) == pytest.approx(
            f.total_integral + nv, abs=1e-12
        )
        assert piecewise_minus_integral(f, 0.0) == pytest.approx(-nv, abs=1e-12)


def test_piecewise_plus_above_max(fock):
    assert piecewise_plus_integral(fock[0], 2.0 / math.pi) == 0.0


def test_piecewise_rejects_negative_u(fock, vacuum_ref):
    # NaN and infinite u are rejected too, rather than giving a NaN integral
    for integral in (piecewise_plus_integral, piecewise_minus_integral):
        for u, q in itertools.product((-0.1, math.nan, math.inf), (None, vacuum_ref)):
            with pytest.raises(ConfigError):
                integral(fock[0], u, q)


def _shifted(f, us, q=None):
    pos, neg = _rearrange(f, q)
    return _shifted_integral(pos, us), _shifted_integral(neg, -us)


def _assert_shifted_match(f, q, us):
    plus, minus = _shifted(f, us, q)
    for u, p, m in zip(us, plus, minus):
        assert p == pytest.approx(piecewise_plus_integral(f, u, q), abs=1e-12)
        assert m == pytest.approx(piecewise_minus_integral(f, u, q), abs=1e-12)


def test_shifted_integrals_match_definition(zoo, half_grid, vacuum_ref):
    refs = [None, vacuum_ref, states.reference("thermal(nbar=-1)", half_grid)]
    zero_width = 0
    for f in zoo.values():
        for q in refs:
            keys = np.abs(f.values) if q is None else np.abs(f.values) / q.values
            # u at cell keys themselves, from the bulk out to the extremes
            qs = [0.0, 0.5, 0.9, 0.99, 0.9999, 1.0]
            us = np.concatenate([[0.0], np.quantile(keys, qs, method="nearest")])
            _assert_shifted_match(f, q, us)
            if q is not None:
                pos, _ = relative_lorenz_curves(f, q)
                zero_width += int((np.diff(pos.s) == 0).sum())
    # tiny weights absorbed into s leave segments with undefined slopes
    assert zero_width > 0


def test_shifted_integrals_strict_above_u():
    # u equal to keys, ties included: boundary cells add f - u*q = 0 exactly
    space = DiscreteSpace(5)
    f = SampledDistribution(space, np.array([2.0, -1.0, 0.5, -0.25, 1.0]))
    q = ReferenceDistribution(space, np.array([1.0, 0.5, 0.25, 1.0, 2.0]))
    # keys f/q: 2, -2, 2, -0.25, 0.5
    _assert_shifted_match(f, q, np.array([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]))
    _assert_shifted_match(f, None, np.array([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]))
    plus, minus = _shifted(f, np.array([0.5, 2.0]), q)
    np.testing.assert_array_equal(plus, [1.5 + 0.375, 0.0])
    np.testing.assert_array_equal(minus, [-0.75, 0.0])


def _clustered(levels_from: float, levels_to: float, points: int) -> np.ndarray:
    # cubic clustering toward the lower endpoint: D_f has a logarithmic
    # spike at small thresholds that a uniform trapezoid cannot resolve
    x = np.linspace(0.0, 1.0, points)
    return levels_from + (levels_to - levels_from) * x**3


def _definition(f, side, q=None):
    """One side by its definition: the cells in a stable sort by f/q, with
    each cell's key, nu term and mass term."""
    v = f.values
    mask = v > 0 if side == POSITIVE else v < 0
    vals = v[mask]
    qm = np.ones(vals.shape) if q is None else q.values[mask]
    order = np.argsort(-vals / qm if side == POSITIVE else vals / qm, kind="stable")
    vals, qm = vals[order], qm[order]
    dmu = f.grid.cell_measure
    return vals / qm, qm * dmu, vals * dmu


def _run_end_counts(keys):
    # cell counts at the last cell of each run of equal keys
    last = np.append(keys[1:] != keys[:-1], True)[: len(keys)]
    return np.flatnonzero(last) + 1


def _cumsum(terms):
    return np.concatenate([[0.0], np.cumsum(terms)])


def _check_sides(f, q=None) -> int:
    """Check both sides of f against the definition; return the cells that
    collapsed into the run ends.

    Keys are always bitwise the definition's distinct keys, in rank order.
    Cells that do not fold: the regular rearrangement is bitwise the
    definition's cumsum at each run end, and the relative one's tie order
    changes only the rounding of a run's sums, so the definition's
    breakpoints lie on its curve.  Folded cells add an orbit's m equal terms
    in one product, so at a sample of run ends s and L must be no farther
    from the exactly rounded sums (``math.fsum``) than the cumsum is, or
    than 8 ulps of the largest of those sums; on a quadrant or a half, than
    sqrt(n) ulps for a sum of n cells, the typical rounding of a recursive
    sum (its 6 samples reach 30 ulps against the cumsum's 4 to 18).
    """
    group = grids._meet(f.group, f.group if q is None else q.group)
    folded = bool(group)
    collapsed = 0
    for side, got in zip((POSITIVE, NEGATIVE), _rearrange(f, q)):
        keys, nu, mass = _definition(f, side, q)
        ends = _run_end_counts(keys)
        assert got.keys.dtype == keys.dtype
        assert got.keys.tobytes() == keys[ends - 1].tobytes()
        assert got.s[0] == 0.0 and got.L[0] == 0.0
        assert len(got.s) == len(got.L) == len(ends) + 1
        collapsed += len(keys) - len(ends)
        s, L = _cumsum(nu), _cumsum(mass)
        at = np.concatenate([[0], ends])
        if folded and len(ends):
            runs = np.unique(np.linspace(0, len(ends) - 1, 6).round().astype(int))
            for terms, curve, cells in ((nu, got.s, s[at]), (mass, got.L, L[at])):
                t = terms.tolist()
                exact = np.array([math.fsum(t[: ends[k]]) for k in runs])
                fold_err = np.abs(curve[runs + 1] - exact).max()
                cell_err = np.abs(cells[runs + 1] - exact).max()
                # short sums of few terms round either way by a few ulps
                ulps = 8 if group == "xpt" else max(8, math.sqrt(ends[runs[-1]]))
                floor = ulps * np.spacing(np.abs(exact).max())
                assert fold_err <= max(cell_err, floor)
        elif q is None:
            for a, b in ((got.s, s[at]), (got.L, L[at])):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            # rounding of the cumulative sums, on the scale of the curve
            on_curve = np.interp(s, got.s, got.L)
            assert np.abs(on_curve - L).max() <= 1e-15 * np.abs(L).max()
    return collapsed


def _tied_vectors():
    rng = np.random.default_rng(7)
    levels = np.array([-0.75, -0.5, -0.125, 0.0, 0.125, 0.25, 0.5, 1.0])
    space = DiscreteSpace(4000)
    return [
        SampledDistribution(space, rng.choice(levels, size=space.size))
        for _ in range(3)
    ]


def _arrays(side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return side.keys, side.s, side.L


GRID_SYMMETRIC = {"fock0", "fock1", "fock4", "thermal04", "lossy1"}
# the mirrors that the other states of the zoo keep
MIRROR_SYMMETRIC = {"cat2": "xp", "rho1": "xp", "coherent": "p", "on23": "p", "rho2": "p"}


def test_regular_rearrangement_matches_argsort(zoo):
    # one breakpoint per distinct value at the definition's breakpoint:
    # bitwise where the cells do not fold
    for f in _tied_vectors():
        assert f.fold is None
        _check_sides(f)
    for name, f in zoo.items():
        assert f.group == ("xpt" if name in GRID_SYMMETRIC else MIRROR_SYMMETRIC[name])
        _check_sides(f)


def test_regular_octant_orders_ties_by_orbit_class(half_grid, one_grid):
    # a run of tied octant cells holds its off-diagonal cells (orbit 8)
    # before its diagonal ones (orbit 4), whatever numpy's argsort does
    specs = [f"fock:{n}" for n in range(6)]
    specs += ["thermal(nbar=1)", "lossy(eta=0.7, fock:1)"]
    for grid, spec in itertools.product((half_grid, one_grid), specs):
        orbits = _orbits(grid, "xpt")
        diag = orbits.size == 4.0
        f = states.render(spec, grid)
        assert f.fold is not None
        keys = np.concatenate([f.fold[~diag], f.fold[diag]])
        weight = orbits.size * grid.cell_measure
        nu = np.concatenate([weight[~diag], weight[diag]])
        order = np.argsort(keys, kind="stable")
        want = _split(keys[order], nu[order], (nu * keys)[order])
        for a, b in zip(_rearrange(f), want):
            for x, y in zip(_arrays(a), _arrays(b)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_split_keeps_zero_and_nan_cells_off_both_sides():
    # zero, -0.0 and NaN keys belong to neither side, so dropping their cells
    # and weights leaves both rearrangements bitwise as they were
    rng = np.random.default_rng(3)
    nonzero = rng.uniform(0.1, 2.0, 40) * np.repeat([1.0, -1.0], 20)
    vals = rng.permutation(np.concatenate([nonzero, [0.0, -0.0, np.nan] * 3]))
    weights = 2.0 ** rng.integers(-3, 4, size=vals.size)
    keep = np.flatnonzero(~np.isnan(vals) & (vals != 0))
    assert np.unique(vals[keep] / weights[keep]).size == keep.size
    full, kept = (
        SampledDistribution(DiscreteSpace(v.size), v) for v in (vals, vals[keep])
    )
    for q, q_kept in (
        (None, None),
        (ReferenceDistribution(full.grid, weights),
         ReferenceDistribution(kept.grid, weights[keep])),
    ):
        pos, neg = got = _rearrange(full, q)
        assert len(got) == 2 and (pos.keys > 0).all() and (neg.keys < 0).all()
        for a, b in zip(got, _rearrange(kept, q_kept)):
            for x, y in zip(_arrays(a), _arrays(b)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_relative_rearrangement_on_definition(zoo, half_grid, vacuum_ref):
    # tie order inside a run changes only the rounding of its sums, so the
    # definition's breakpoints lie on the collapsed curve
    rng = np.random.default_rng(5)
    space = DiscreteSpace(4000)
    weights = ReferenceDistribution(
        space, rng.choice([0.25, 0.5, 1.0, 2.0], size=space.size)
    )
    cases = [(f, weights) for f in _tied_vectors()]
    thermal = states.reference("thermal(nbar=-1)", half_grid)
    cases += [(f, q) for f in zoo.values() for q in (vacuum_ref, thermal)]
    collapsed = 0
    for f, q in cases:
        collapsed += _check_sides(f, q)
    assert collapsed > 0


def test_grid_symmetric_states_fold(zoo, half_grid, vacuum_ref):
    # Fock, thermal and lossy states and the thermal references are rotation
    # invariant, so on the mirrored axis each octant cell stands for its orbit
    refs = [
        vacuum_ref,
        states.reference("thermal(nbar=-1)", half_grid),
        states.reference("thermal(nbar=1.3)", half_grid),
    ]
    h = half_grid.points_per_axis // 2
    octant = (h * (h + 1) // 2,)  # 61,425 of 490,000 cells
    for q in refs:
        assert q.fold.shape == octant
    for name in sorted(GRID_SYMMETRIC):
        f = zoo[name]
        fold = f.fold
        assert fold.shape == octant and f.fold is fold  # kept on f
        # the octant holds every distinct value
        assert np.array_equal(np.unique(fold), np.unique(f.values))
        # thermal(nbar=1.3) here; the others in the two tests above
        _check_sides(f, refs[2])
        pos, neg = _rearrange(f, refs[2])
        assert pos.L[-1] + neg.L[-1] == pytest.approx(f.total_integral, abs=1e-12)


def _perturbed(f, cell, value):
    v = f.values.copy()
    v[cell] = value
    return SampledDistribution(f.grid, v)


def test_cell_path_when_not_grid_symmetric(zoo, half_grid):
    # cells that do not come in orbits of equal values, symmetric cells
    # given by their values, a folding f against a reference that does not
    # fold, and two halves that share no mirror, keep the cell sort
    small = GridSpec(1, 7.0, 120)
    fock1 = zoo["fock1"]
    corner = half_grid.size - 1
    cases = [
        (states.render("coherent(alpha=1+1i)", half_grid), None),
        (states.render("cubic(g=0.02, s=0.1)", small), None),
        (states.render("dephase(gamma=0.5, cat(alpha=1))", small), None),
        (_perturbed(fock1, corner, np.nextafter(fock1.values[corner], 1.0)), None),
        (_perturbed(fock1, 12345, np.nan), None),
        (SampledDistribution(half_grid, fock1.values), None),
        (fock1, states.reference("coherent(alpha=1.2+0.5i)", half_grid)),
        (states.render("coherent(alpha=1.5i)", half_grid), states.reference("coherent(alpha=1.2)", half_grid)),
    ]
    assert fock1.fold is not None  # folds, but not against a coherent q
    for f, q in cases:
        assert grids._meet(f.group, f.group if q is None else q.group) == ""
        _check_sides(f, q)
        if q is None:
            _check_sides(f, states.reference("vacuum", f.grid))


def test_phi_with_empty_negative_sides():
    space = DiscreteSpace(4)
    f = SampledDistribution(space, np.array([3.0, 1.0, 0.0, 2.0]))
    g = SampledDistribution(space, np.array([0.0, 1.0, 1.0, 4.0]))
    # decreasing rearrangements (3, 2, 1, 0) and (4, 1, 1, 0)
    assert monotones.phi_functional(f, g) == 15.0


def test_level_set_identity_fock4(fock):
    # independent oracle: integral of D_f over [u, max f] by fine trapezoid
    f = fock[4]
    u = 0.1
    ts = np.linspace(u, f.values.max() * 1.0001, 4000)
    d_vals = [distribution_function(f, t) for t in ts]
    rhs = trapezoid(d_vals, ts)
    assert piecewise_plus_integral(f, u) == pytest.approx(rhs, abs=1e-3)


def test_chong_identities_sampled(zoo):
    # both identities, 20-point u grid over [0, max f], tolerance 1e-3
    for name in ("fock1", "fock4", "lossy1", "cat2"):
        f = zoo[name]
        top = float(f.values.max())
        bot = float(f.values.min())
        for u in np.linspace(0.0, top, 20):
            ts = _clustered(u, top * 1.0001, 1200)
            rhs = trapezoid([distribution_function(f, t) for t in ts], ts)
            assert piecewise_plus_integral(f, u) == pytest.approx(rhs, abs=1e-3)
            if bot < -u:
                ts = -_clustered(u, -bot * 1.0001, 1200)
                rhs = trapezoid([codistribution_function(f, t) for t in ts], ts)
                assert piecewise_minus_integral(f, u) == pytest.approx(rhs, abs=1e-3)


def _assert_decimation_tracked(f, pos, small):
    # probes the regular curves of f over the whole window
    assert len(small.s) < len(pos.s)
    probe = np.linspace(0.0, f.grid.total_measure, 5000)
    observed = np.abs(small(probe) - pos(probe)).max()
    assert observed <= small.decimation_error + 1e-15
    assert small.decimation_error < 1e-6


def test_slope_at_single_breakpoint_side():
    # the vacuum is nowhere negative, so its negative side is the lone s = 0
    grid = GridSpec(points_per_axis=60)
    pos, neg = lorenz_curves(states.render("vacuum", grid))
    assert len(neg.s) == 1
    assert [slope_at(neg, at) for at in (-1.0, 0.0, 1.0)] == [0.0, 0.0, 0.0]
    assert slope_at(pos, 0.0) == slope_at(pos, -1.0) > 0.0


def test_decimation_error_tracking(fock, zoo):
    pos, _ = lorenz_curves(fock[4])
    small = pos.decimated(max_points=20_000)
    assert len(small.s) <= 20_001
    _assert_decimation_tracked(fock[4], pos, small)
    # the default budget stays comfortably below the tracked 1e-6 target;
    # the mixture has more distinct values than that budget, so its seed
    # cuts already meet the target
    assert pos.decimated().decimation_error < 1e-6
    pos, _ = lorenz_curves(zoo["rho1"])
    assert len(pos.s) > 100_001
    _assert_decimation_tracked(zoo["rho1"], pos, pos.decimated())


def test_decimation_refines_past_its_seeds(half_grid):
    # the cubic phase state's curve misses the tolerance at its at most
    # 2 * (5000 // 4) + 2 seed cuts, so bisection adds cuts until it meets it
    f = states.render("cubic(g=0.02, s=0.1)", half_grid)
    pos, _ = lorenz_curves(f)
    small = pos.decimated(max_points=5000)
    assert 2 * (5000 // 4) + 2 < len(small.s) < 5000
    assert small.decimation_error <= DECIMATION_TOL
    # the tracked error is the exact sup norm over the dropped breakpoints
    assert np.abs(small(pos.s) - pos.L).max() == small.decimation_error
    _assert_decimation_tracked(f, pos, small)


def test_resample_pair_log_floor(fock):
    pos, neg = lorenz_curves(fock[1])
    end = fock[1].grid.total_measure
    s, lp, lm = resample_pair(pos, neg, end, points=100, s_min=4e-4)
    assert s[-1] == pytest.approx(end)
    assert s[0] == pytest.approx(4e-4)
    assert (np.diff(s) > 0).all()
    assert lp[-1] == pytest.approx(pos.final, abs=1e-9)


@pytest.mark.parametrize("hbar", ["half", "one"])
def test_product_path_matches_cell_path(hbar):
    # tensor states are rearranged from their factors' level sets; copies
    # without factors take the cell sort, which keys by (f1*f2)/(q1*q2)
    # rather than (f1/q1)*(f2/q2), so the curves agree to rounding only
    grid = GridSpec(2, 5.0 if hbar == "half" else 5.0 * math.sqrt(2.0), 16, hbar)
    specs = (
        "tensor(fock:2, fock:2)",
        "tensor(cubic(g=0.02, s=0.1), vacuum)",
        "tensor(cat(alpha=1), thermal(nbar=0.5))",
    )
    products = [states.render(spec, grid) for spec in specs]
    cells = [SampledDistribution(grid, f.values) for f in products]
    q = states.reference("tensor(vacuum, vacuum)", grid)
    for ref, ref_cells in ((None, None), (q, ReferenceDistribution(grid, q.values))):
        for f, f_cells in zip(products, cells):
            assert f.factors and not f_cells.factors
            for a, b in zip(_rearrange(f, ref), _rearrange(f_cells, ref_cells)):
                assert np.abs(np.interp(b.s, a.s, a.L) - b.L).max() <= 1e-11
                assert a.s[-1] == pytest.approx(b.s[-1], rel=0, abs=1e-11)
                assert a.L[-1] == pytest.approx(b.L[-1], rel=0, abs=1e-11)
        # each state against itself is equivalent across the two paths
        for i, j in itertools.product(range(len(specs)), repeat=2):
            want = compare(cells[i], cells[j], ref_cells, eps_norm=1.0).outcome
            assert compare(products[i], products[j], ref, eps_norm=1.0).outcome is want
            assert compare(products[i], cells[j], ref, eps_norm=1.0).outcome is want
            assert statement4_check(
                products[i], products[j], ref, eps_norm=1.0
            ) == statement4_check(cells[i], cells[j], ref_cells, eps_norm=1.0)


def test_regular_rearrangement_keeps_no_table_of_masses(zoo):
    # each side forms its masses value * dmu alone and cumulates them in
    # place, and frees each running sum before the next: the sorted values
    # and their one largest side stay under 3 cell arrays (4 with a table of
    # masses); a copy given by its values has no kept sides, so it is built
    # here
    f = SampledDistribution(zoo["rho1"].grid, zoo["rho1"].values)
    tracemalloc.start()
    try:
        _rearrange(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * f.values.nbytes


def test_ahead_raises_in_sequential_order(two_cpus, monkeypatch):
    # f's error wins and surfaces only after g's worker build has ended; a
    # failed worker build is dropped, so g's error comes from its build here
    builds, names, failing, kept = [], {}, [], []

    def build(x, q):
        name = names[x]
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker:
            time.sleep(0.2)
        builds.append((name, on_worker))
        if name in failing:
            raise ValueError(name)
        return name

    def pair(fails):
        # new operands, for which no sides are kept
        f, g = (SampledDistribution(DiscreteSpace(1), np.ones(1)) for _ in "fg")
        names.update({f: "f", g: "g"})
        failing[:] = fails
        builds.clear()
        try:
            return _ahead(g, None, lambda: _rearrange(f)), _rearrange(g)
        finally:
            kept.append(rearrange._kept_sides(g, None))

    monkeypatch.setattr(rearrange, "_build", build)
    assert pair("") == ("f", "g")
    assert builds == [("f", False), ("g", True)] and kept == ["g"]
    worker_then_here = [("f", False), ("g", True), ("g", False)]
    for fails, want, built, g_kept in (
        ("fg", "f", [("f", False), ("g", True)], None),
        ("f", "f", [("f", False), ("g", True)], "g"),
        ("g", "g", worker_then_here, None),
    ):
        kept.clear()
        with pytest.raises(ValueError, match=want):
            pair(fails)
        assert builds == built and kept == [g_kept]


def test_ahead_errors_of_real_operands(two_cpus):
    # f's positive part and g's negative part sum past the largest float
    # (their totals overflow too, which phi_functional does not read)
    space = DiscreteSpace(4)
    with np.errstate(over="ignore"):
        f = SampledDistribution(space, np.array([1.7e308, 1.7e308, 0.0, 0.0]))
        g = SampledDistribution(space, np.array([0.0, 0.0, -1.7e308, -1.7e308]))
    h = SampledDistribution(space, np.array([1.0, 0.0, -1.0, 0.0]))
    f_err, g_err = "got inf and 0.0", "got 0.0 and -inf"
    for a, b, want in ((f, g, f_err), (g, f, g_err), (h, g, g_err), (f, h, f_err)):
        with pytest.raises(ConfigError, match=want):
            monotones.phi_functional(a, b)


def _split_threads(monkeypatch) -> list:
    # every rearrangement ends in one _split per operand (a product's
    # factors are split on the same thread as the product)
    threads, split = [], rearrange._split

    def record(*args):
        threads.append(threading.get_ident())
        return split(*args)

    monkeypatch.setattr(rearrange, "_split", record)
    return threads


def test_ahead_builds_a_shared_lazy_values_once(two_cpus, zoo, half_grid, monkeypatch):
    # both builds of a relative compare of functions given by their values
    # read the octant reference's cells; one builds them, the other waits
    built = []
    unfold = grids._restrict

    def slow_unfold(grid, fold, group, to=""):
        if not to:  # every cell: the values
            built.append(threading.get_ident())
            time.sleep(0.2)
        return unfold(grid, fold, group, to)

    f, g = (grids.SampledDistribution(half_grid, zoo[k].values) for k in ("rho1", "rho2"))
    monkeypatch.setattr(grids, "_restrict", slow_unfold)
    threads = _split_threads(monkeypatch)
    q = states.reference("thermal(nbar=0.37)", half_grid)
    assert q.fold is not None and "values" not in vars(q)
    compare(f, g, q)
    assert len(built) == 1
    assert len(threads) == len(set(threads)) == 2 and threading.get_ident() in threads


def test_one_cpu_builds_nothing_ahead(zoo, vacuum_ref, fresh, monkeypatch):
    # two builds on one CPU only take turns, so both run on the calling
    # thread; each call gets operands of its own, for which no sides are kept
    monkeypatch.setattr(rearrange, "_cpus", lambda: 1)
    threads = _split_threads(monkeypatch)
    f, g = zoo["rho1"], zoo["rho2"]
    compare(fresh(f), fresh(g), vacuum_ref)
    statement4_check(fresh(f), fresh(g))
    monotones.phi_functional(fresh(f), fresh(g))
    assert threads and set(threads) == {threading.get_ident()}


def _builds(monkeypatch) -> list:
    # the operand of every build, a product's factors too
    built, build = [], rearrange._build

    def record(f, q):
        built.append(f)
        return build(f, q)

    monkeypatch.setattr(rearrange, "_build", record)
    return built


def test_a_second_call_reads_the_kept_sides(
    two_cpus, fock, zoo, vacuum_ref, half_grid, fresh, monkeypatch
):
    # the sides of f and g against q are kept while all three live, so the
    # same call again builds nothing and gives the same result, bitwise
    two = GridSpec(2, 5.0, 16)
    tensor = [states.render(s, two) for s in ("tensor(fock:1, vacuum)", "tensor(vacuum, fock:1)")]
    cases = [
        (fock[1], fock[2], None),  # octant
        (fock[3], fock[2], vacuum_ref),
        (zoo["rho1"], zoo["rho2"], None),  # values
        (zoo["rho1"], zoo["rho2"], states.reference("thermal(nbar=0.37)", half_grid)),
        (*tensor, None),  # product
        (*tensor, states.reference("tensor(vacuum, vacuum)", two)),
    ]
    built = _builds(monkeypatch)
    for f, g, q in cases:
        calls = [compare, statement4_check]
        if q is None:
            calls.append(lambda f, g, q: monotones.phi_functional(f, g))
        for call in calls:
            f, g = fresh(f), fresh(g)
            built.clear()
            first = call(f, g, q)
            assert built
            built.clear()
            assert repr(call(f, g, q)) == repr(first)
            assert built == []


def test_kept_sides_die_with_either_function(fock, half_grid, fresh):
    f, g = fresh(fock[3]), fresh(fock[2])
    q = states.reference("thermal(nbar=0.37)", half_grid)
    regular = weakref.ref(_rearrange(f)[0].keys)
    relative = [weakref.ref(_rearrange(h, q)[0].keys) for h in (f, g)]
    alive = weakref.ref(q)
    # f keeps no reference to q: its entry against q dies with q
    del q
    gc.collect()
    assert alive() is None and relative[0]() is None and relative[1]() is None
    assert regular() is not None
    # and f's regular entry dies with f
    del f
    gc.collect()
    assert regular() is None


def test_a_scan_keeps_no_relative_sides(half_grid):
    # each verdict's reference dies when its verdict returns, and with it the
    # sides against it
    f, g = states.render("fock:2", half_grid), states.render("vacuum", half_grid)
    family = states.thermal_reference_family(half_grid)
    scan_threshold(f, g, family, (0.1, 3.5))
    # the worker lets go of the last verdict's operands once its loop moves
    # on, which a build that has returned may still be short of
    rearrange._worker.submit(int).result()
    assert all(set(rearrange._kept.get(h, ())) <= {rearrange._REGULAR} for h in (f, g))


def _submissions(monkeypatch) -> list:
    # the arguments of every job submitted to the worker
    submitted, submit = [], rearrange._worker.submit

    def record(fn, *args):
        submitted.append(args)
        return submit(fn, *args)

    monkeypatch.setattr(rearrange._worker, "submit", record)
    return submitted


def test_ahead_submits_nothing_for_kept_sides(two_cpus, fock, fresh, monkeypatch):
    submitted = _submissions(monkeypatch)
    f, g = fresh(fock[1]), fresh(fock[2])
    for want in ([(g, None)], []):
        submitted.clear()
        _ahead(g, None, lambda: _rearrange(f)), _rearrange(g)
        assert submitted == want
        assert rearrange._kept_sides(g, None) is not None


def test_ahead_keeps_no_failed_or_mismatched_sides(two_cpus, fock, fresh, half_grid, monkeypatch):
    # a worker build that raises is dropped, and _rearrange raises its error
    with np.errstate(over="ignore"):
        g = SampledDistribution(DiscreteSpace(2), np.array([1.7e308, 1.7e308]))
    assert _ahead(g, None, lambda: "here") == "here"
    assert rearrange._kept_sides(g, None) is None
    with pytest.raises(ConfigError, match="got inf and 0.0"):
        _rearrange(g)
    # a reference on a grid of the same N but another L: nothing is built
    # ahead, the calling thread raises, and nothing is kept against it
    submitted = _submissions(monkeypatch)
    other = GridSpec(1, half_grid.half_width - 1.0, half_grid.points_per_axis)
    q = states.reference("vacuum", other)
    f, g = fresh(fock[1]), fresh(fock[2])
    with pytest.raises(grids.GridMismatchError):
        compare(f, g, q)
    assert submitted == []
    assert rearrange._kept_sides(f, q) is None and rearrange._kept_sides(g, q) is None


def test_functions_with_kept_sides_pickle_and_copy(fock, zoo, vacuum_ref):
    # the kept sides are held outside the instances, so a copy carries none
    for f in (fock[2], zoo["rho1"], vacuum_ref):
        _rearrange(f)
        _rearrange(f, vacuum_ref)
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert type(twin) is type(f) and twin is not f
            assert rearrange._kept_sides(twin, None) is None
            for a, b in zip(_rearrange(twin), _rearrange(f)):
                assert all(x.tobytes() == y.tobytes() for x, y in zip(_arrays(a), _arrays(b)))


def test_threads_keep_every_side():
    # calling threads share the table: the regular and the relative sides
    # that threads keep for one new f at once all stay kept
    space = DiscreteSpace(8)
    q = ReferenceDistribution(space, np.ones(8))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(1000):
            f = SampledDistribution(space, np.linspace(-1.0, 1.0, 8))
            start = threading.Barrier(8)

            def keep(r):
                start.wait(timeout=60)
                _rearrange(f, r)

            threads = [threading.Thread(target=keep, args=(r,)) for r in (None, q) * 4]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert rearrange._kept_sides(f, None) is not None
            assert rearrange._kept_sides(f, q) is not None
    finally:
        sys.setswitchinterval(interval)


def test_fold_curves_match_values_form(half_grid, zoo):
    # a quadrant or a half, regular and against an octant, a quadrant or a
    # half reference, gives the keys of the same function given by its
    # values bitwise, and its s and L to rounding; a quadrant against a
    # half is read on the half
    vacuum = states.reference("vacuum", half_grid)
    thermal = states.reference("thermal(nbar=0.8)", half_grid)
    coherent = states.reference("coherent(alpha=0.5)", half_grid)
    assert coherent.group == "p"
    names, refs = ("cat2", "rho1", "coherent", "on23", "rho2"), (None, vacuum, thermal, coherent)
    folded = {(name, i): _rearrange(zoo[name], q) for name in names for i, q in enumerate(refs)}
    assert not any("values" in vars(q) for q in refs[1:])
    for (name, i), sides in folded.items():
        f, q = zoo[name], refs[i]
        cells = SampledDistribution(half_grid, f.values)
        q_cells = None if q is None else ReferenceDistribution(half_grid, q.values)
        for a, b in zip(sides, _rearrange(cells, q_cells)):
            assert a.keys.tobytes() == b.keys.tobytes()
            # the cells' running sum of 1e5 terms errs by 1e-11 of its end
            for x, y in ((a.s, b.s), (a.L, b.L)):
                assert np.abs(x - y).max() <= 1e-10 * max(1.0, np.abs(y).max())


def test_mixture_compare_reads_no_cells(half_grid, monkeypatch):
    # the two mixtures of the figure verdicts, a quadrant and a half, are
    # compared from their folds: no 490,000-cell array is built
    texts = ("mix(0.75:cat(alpha=2), 0.25:fock:7)", "mix(0.5:on(a=2,n=3), 0.5:fock:1)")
    f, g = (states.render(t, half_grid) for t in texts)
    assert (f.group, g.group) == ("xp", "p")
    sizes, split = [], rearrange._split

    def recording_split(keys, nu, mass=None):
        sizes.append(keys.size)
        return split(keys, nu, mass)

    monkeypatch.setattr(rearrange, "_split", recording_split)
    compare(f, g)
    assert sorted(sizes) == [122_500, 245_000]
    assert "values" not in vars(f) and "values" not in vars(g)


def _unfolded(f: SampledDistribution, fresh) -> SampledDistribution:
    """f = h x h with its second factor a new object: the full pair table."""
    h = f.factors[0]
    return type(f)(f.grid, None, (h, fresh(h)))


@pytest.mark.parametrize("n", [16, 32])
def test_repeated_factor_folds_to_unfolded_copy(n, fresh):
    # a product of one factor object with itself sorts each unordered pair
    # of its level sets once: the keys are the full table's bitwise, and s
    # and L sum each i < j pair as one doubled term, so they agree to
    # rounding within tied runs
    grid = GridSpec(2, 5.0, n)
    specs = (
        "tensor(fock:2, fock:2)",
        "tensor(cat(alpha=1), cat(alpha=1))",
        "tensor(cubic(g=0.02, s=0.1), cubic(g=0.02, s=0.1))",
    )
    folded = [states.render(spec, grid) for spec in specs]
    unfolded = [_unfolded(f, fresh) for f in folded]
    refs = [None] + [
        states.reference(f"tensor({r}, {r})", grid) for r in ("vacuum", "thermal(nbar=1)")
    ]
    for q in refs:
        assert q is None or q.factors[0] is q.factors[1]
        for f, g in zip(folded, unfolded):
            assert f.factors[0] is f.factors[1] and g.factors[0] is not g.factors[1]
            for a, b in zip(_rearrange(f, q), _rearrange(g, q)):
                assert a.keys.tobytes() == b.keys.tobytes()
                for x, y in ((a.s, b.s), (a.L, b.L)):
                    assert np.abs(x - y).max() <= 1e-10 * max(1.0, abs(y[-1]))
        for i, j in itertools.product(range(len(specs)), repeat=2):
            pair, copies = (folded[i], folded[j]), (unfolded[i], unfolded[j])
            assert (
                compare(*pair, q, eps_norm=1.0).outcome
                is compare(*copies, q, eps_norm=1.0).outcome
            )
            assert statement4_check(*pair, q, eps_norm=1.0) == statement4_check(
                *copies, q, eps_norm=1.0
            )


def test_fold_needs_one_reference_factor(fresh, monkeypatch):
    # against vacuum x thermal the repeated factor of f meets two different
    # reference factors, so the pairs (i, j) and (j, i) differ: the full
    # table of K^2 pairs is sorted, against vacuum x vacuum the K(K+1)/2
    # unordered ones
    grid = GridSpec(2, 5.0, 16)
    f = states.render("tensor(fock:2, fock:2)", grid)
    sizes, split = [], rearrange._split

    def recording_split(keys, nu, mass=None):
        sizes.append(keys.size)
        return split(keys, nu, mass)

    monkeypatch.setattr(rearrange, "_split", recording_split)
    cases = (("tensor(vacuum, thermal(nbar=1))", False), ("tensor(vacuum, vacuum)", True))
    for spec, folds in cases:
        q = states.reference(spec, grid)
        sizes.clear()
        sides = _rearrange(f, q)
        k1, k2 = (
            sum(len(side.keys) for side in rearrange._build(h, r))
            for h, r in zip(f.factors, q.factors)
        )
        assert max(sizes) == (k1 * (k1 + 1) // 2 if folds else k1 * k2)
        for a, b in zip(sides, _rearrange(_unfolded(f, fresh), q)):
            assert a.keys.tobytes() == b.keys.tobytes()


def test_fold_build_peaks_below_the_full_table(fresh):
    # the half table's peak lies below the full one's, with the factor's
    # level sets built once rather than twice
    grid = grids.default_grid(modes=2)
    f = states.render("tensor(fock:2, fock:2)", grid)
    q = states.reference("tensor(vacuum, vacuum)", grid)
    peaks = []
    for g in (f, _unfolded(f, fresh)):
        tracemalloc.start()
        try:
            _rearrange(g, q)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]
