from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from qmaj import monotones, states
from qmaj.compare import compare, statement4_check
from qmaj.grids import (
    DiscreteSpace,
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
)
from qmaj.rearrange import (
    NEGATIVE,
    POSITIVE,
    _merged,
    _rearrange,
    _shifted_integrals,
    codistribution_function,
    distribution_function,
    lorenz_curves,
    piecewise_minus_integral,
    piecewise_plus_integral,
    relative_lorenz_curves,
    resample_pair,
)


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
    rng = np.random.default_rng(11)
    for f in zoo.values():
        v = f.values
        ts = np.concatenate(
            [rng.uniform(v.min(), v.max(), 20), rng.choice(v, 20), [np.nan]]
        )
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
            assert (np.diff(pos.slopes()) <= tol).all()
        if len(neg.s) > 2:
            tol = 64 * eps * abs(neg.final) / np.diff(neg.s).min()
            assert (np.diff(neg.slopes()) >= -tol).all()


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
        assert all(c.octant is None for c in copies)
        bitwise = slice(0 if f.octant is None else 1, None)
        for sides in zip(*(_rearrange(g) for g in (f, *copies))):
            assert len({r.keys.tobytes() for r in sides}) == 1
            assert len({(r.s.tobytes(), r.L.tobytes()) for r in sides[bitwise]}) == 1
        for c, q in zip(copies, refs):
            for x, y in zip(_rearrange(f, vacuum_ref), _rearrange(c, q)):
                assert x.keys.tobytes() == y.keys.tobytes()
        _check_sides(f)


def test_relative_reduces_to_regular(half_grid, fock):
    ones = ReferenceDistribution(half_grid, np.ones(half_grid.size))
    rel = relative_lorenz_curves(fock[4], ones)
    reg = lorenz_curves(fock[4])
    for a, b in zip(rel, reg):
        np.testing.assert_array_equal(a.s, b.s)
        np.testing.assert_array_equal(a.L, b.L)


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
        assert pos.slope_at(u) == pytest.approx(expected, abs=1e-3)


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
    from qmaj.errors import ConfigError

    # NaN and infinite u are rejected too, rather than giving a NaN integral
    for integral in (piecewise_plus_integral, piecewise_minus_integral):
        for u, q in itertools.product((-0.1, math.nan, math.inf), (None, vacuum_ref)):
            with pytest.raises(ConfigError):
                integral(fock[0], u, q)


def _shifted(f, us, q=None):
    return _shifted_integrals(*_rearrange(f, q), us)


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
    than 8 ulps of the largest of those sums.
    """
    folded = f.octant is not None and (q is None or q.octant is not None)
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
                floor = 8 * np.spacing(np.abs(exact).max())
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


GRID_SYMMETRIC = {"fock0", "fock1", "fock4", "thermal04", "lossy1"}


def test_regular_rearrangement_matches_argsort(zoo):
    # one breakpoint per distinct value at the definition's breakpoint:
    # bitwise where the cells do not fold
    for f in _tied_vectors():
        assert f.octant is None
        _check_sides(f)
    for name, f in zoo.items():
        assert (f.octant is not None) == (name in GRID_SYMMETRIC)
        _check_sides(f)


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
            for x, y in zip(a, b):
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
        assert q.octant.shape == octant
    for name in sorted(GRID_SYMMETRIC):
        f = zoo[name]
        fold = f.octant
        assert fold.shape == octant and f.octant is fold  # kept on f
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
    # cells that do not come in orbits of equal values, and a folding f
    # against a reference that does not fold, keep the cell sort
    small = GridSpec(1, 7.0, 120)
    fock1 = zoo["fock1"]
    corner = half_grid.size - 1
    cases = [
        (zoo["cat2"], None),
        (states.render("cubic(g=0.02, s=0.1)", small), None),
        (states.render("dephase(gamma=0.5, fock:1)", small), None),
        (_perturbed(fock1, corner, np.nextafter(fock1.values[corner], 1.0)), None),
        (_perturbed(fock1, 12345, np.nan), None),
        (fock1, states.reference("coherent(alpha=1.2)", half_grid)),
    ]
    assert fock1.octant is not None  # folds, but not against a coherent q
    for f, q in cases:
        assert f.octant is None or (q is not None and q.octant is None)
        _check_sides(f, q)
        if q is None:
            _check_sides(f, states.reference("vacuum", f.grid))


@pytest.mark.parametrize(
    "a, b",
    [
        ([0.0, 0.5, 1.0, 2.5], [0.0, 0.25, 1.0, 1.0, 3.0]),
        ([0.0, 1.0, 1.0], [0.0, 1.0]),
        ([], [0.0, 2.0]),
        ([0.5], []),
        ([], []),
    ],
)
def test_merged_matches_union1d(a, b):
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    got, want = _merged(a, b), np.union1d(a, b)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_merged_matches_union1d_on_curves(fock):
    a, b = lorenz_curves(fock[3])[0].s, lorenz_curves(fock[4])[0].s
    assert _merged(a, b).tobytes() == np.union1d(a, b).tobytes()


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
    rhs = np.trapezoid(d_vals, ts)
    assert piecewise_plus_integral(f, u) == pytest.approx(rhs, abs=1e-3)


def test_chong_identities_sampled(zoo):
    # both identities, 20-point u grid over [0, max f], tolerance 1e-3
    for name in ("fock1", "fock4", "lossy1", "cat2"):
        f = zoo[name]
        top = float(f.values.max())
        bot = float(f.values.min())
        for u in np.linspace(0.0, top, 20):
            ts = _clustered(u, top * 1.0001, 1200)
            rhs = np.trapezoid([distribution_function(f, t) for t in ts], ts)
            assert piecewise_plus_integral(f, u) == pytest.approx(rhs, abs=1e-3)
            if bot < -u:
                ts = -_clustered(u, -bot * 1.0001, 1200)
                rhs = np.trapezoid([codistribution_function(f, t) for t in ts], ts)
                assert piecewise_minus_integral(f, u) == pytest.approx(rhs, abs=1e-3)


def _assert_decimation_tracked(pos, small):
    assert len(small.s) < len(pos.s)
    probe = np.linspace(0.0, pos.domain_end, 5000)
    observed = np.abs(small(probe) - pos(probe)).max()
    assert observed <= small.decimation_error + 1e-15
    assert small.decimation_error < 1e-6


def test_slope_at_single_breakpoint_side():
    # the vacuum is nowhere negative, so its negative side is the lone s = 0
    grid = GridSpec(points_per_axis=60)
    pos, neg = lorenz_curves(states.render("vacuum", grid))
    assert len(neg.s) == 1
    assert [neg.slope_at(at) for at in (-1.0, 0.0, 1.0)] == [0.0, 0.0, 0.0]
    assert pos.slope_at(0.0) == pos.slope_at(-1.0) > 0.0


def test_decimation_error_tracking(fock, zoo):
    pos, _ = lorenz_curves(fock[4])
    small = pos.decimated(max_points=20_000)
    assert len(small.s) <= 20_001
    _assert_decimation_tracked(pos, small)
    # the default budget stays comfortably below the tracked 1e-6 target;
    # the mixture has more distinct values than that budget, so it refines
    assert pos.decimated().decimation_error < 1e-6
    pos, _ = lorenz_curves(zoo["rho1"])
    assert len(pos.s) > 100_001
    _assert_decimation_tracked(pos, pos.decimated())


def test_resample_pair_log_floor(fock):
    pos, neg = lorenz_curves(fock[1])
    s, lp, lm = resample_pair(pos, neg, points=100, s_min=4e-4)
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
            assert statement4_check(products[i], products[j], ref) == statement4_check(
                cells[i], cells[j], ref_cells
            )
