from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import erf

from qmaj import states
from qmaj.errors import ConfigError
from qmaj.grids import (
    DiscreteSpace,
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
    default_grid,
    truncation_report,
)


def test_tiny_grid_enumeration():
    spec = GridSpec(modes=1, half_width=1.0, points_per_axis=2)
    np.testing.assert_allclose(spec.axis(), [-0.5, 0.5])
    # row-major cell centers from the broadcast mesh
    cells = np.stack(np.broadcast_arrays(*spec.mesh()), axis=-1).reshape(-1, 2)
    assert cells.shape == (4, 2)
    expected = np.array([[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]])
    np.testing.assert_allclose(cells, expected)
    assert spec.cell_measure == pytest.approx(1.0)


def test_grid_arithmetic():
    spec = GridSpec(modes=1, half_width=7.0, points_per_axis=700)
    assert spec.size == 490_000
    assert spec.cell_measure == pytest.approx(4e-4)
    two = GridSpec(modes=2, half_width=5.0, points_per_axis=64)
    assert two.size == 64**4
    assert two.cell_measure == pytest.approx((10 / 64) ** 4)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(points_per_axis=701)  # odd
    with pytest.raises(ConfigError):
        GridSpec(half_width=-1.0)
    with pytest.raises(ConfigError):
        GridSpec(half_width=float("nan"))
    with pytest.raises(ConfigError):
        GridSpec(half_width=float("inf"))
    with pytest.raises(ConfigError):
        GridSpec(half_width=1e300, points_per_axis=60)  # cell measure overflows
    with pytest.raises(ConfigError):
        GridSpec(modes=2, half_width=1e100)  # window measure overflows
    with pytest.raises(ConfigError):
        GridSpec(half_width=1e-200)  # cell measure underflows to 0
    with pytest.raises(ConfigError):
        GridSpec(modes=0)
    with pytest.raises(ConfigError):
        GridSpec(hbar="planck")


def test_enumeration_deterministic():
    spec = GridSpec(modes=1, half_width=3.0, points_per_axis=10)
    np.testing.assert_array_equal(spec.axis(), spec.axis())


def test_integrate_vacuum(half_grid):
    f = states.render("vacuum", half_grid)
    assert f.total_integral == pytest.approx(1.0, abs=1e-6)


def test_integrate_zero(half_grid):
    zero = SampledDistribution(half_grid, np.zeros(half_grid.size))
    assert zero.total_integral == 0.0


def test_integrate_fock4(half_grid):
    f = states.render("fock:4", half_grid)
    assert f.total_integral == pytest.approx(1.0, abs=1e-4)


def test_integrate_linearity(half_grid):
    rng = np.random.default_rng(7)
    f = SampledDistribution(half_grid, rng.normal(size=half_grid.size))
    g = SampledDistribution(half_grid, rng.normal(size=half_grid.size))
    combo = SampledDistribution(half_grid, 2.5 * f.values - 0.7 * g.values)
    rhs = 2.5 * f.total_integral - 0.7 * g.total_integral
    assert combo.total_integral == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_values_immutable(half_grid):
    f = states.render("vacuum", half_grid)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_factors_must_tile_the_grid():
    one = states.render("vacuum", GridSpec(1, 3.0, 16))
    two = GridSpec(2, 3.0, 16)
    vals = np.multiply.outer(one.as_nd(), one.as_nd()).ravel()
    assert SampledDistribution(two, None, (one, one)).factors[1] is one
    for other in (
        GridSpec(1, 3.0, 18),  # points per axis
        GridSpec(1, 4.0, 16),  # half width
        GridSpec(1, 3.0, 16, "one"),  # hbar convention
        GridSpec(2, 3.0, 16),  # modes add up to 3
        DiscreteSpace(256),
    ):
        h = SampledDistribution(other, np.ones(int(np.prod(other.shape))))
        with pytest.raises(ConfigError):
            SampledDistribution(two, None, (one, h))
        with pytest.raises(ConfigError):
            ReferenceDistribution(two, None, factors=(one, h))
    with pytest.raises(ConfigError):
        SampledDistribution(two, None, (one,))
    with pytest.raises(ConfigError):
        SampledDistribution(DiscreteSpace(vals.size), None, (one, one))
    # exactly one of values, factors and octant, and an octant only of the
    # one-mode grid it was cut from
    fold = one.fold
    assert fold is not None
    for grid, values, factors, octant in (
        (two, None, (), fold),
        (DiscreteSpace(fold.size), None, (), fold),
        (one.grid, None, (), fold[:-1]),
        (one.grid, one.values, (), fold),
        (two, vals, (one, one), None),
        (one.grid, None, (), None),
    ):
        with pytest.raises(ConfigError):
            SampledDistribution(grid, values, factors, fold=octant)
    # a fold of a group that the grid has, with one entry per orbit
    for group in ("pt", "t", "xp", ""):
        with pytest.raises(ConfigError):
            SampledDistribution(one.grid, None, fold=fold, group=group)


def test_equality_is_identity():
    # comparing or hashing a sampled function reads no cells
    grid = GridSpec(1, 7.0, 60)
    cells = states.render("cat(alpha=2)", grid)
    folded = states.render("fock:2", grid)
    product = states.render("tensor(vacuum, fock:1)", GridSpec(2, 3.0, 8))
    ref = states.reference("vacuum", grid)
    for f in (cells, folded, product, ref):
        assert f == f and not f != f
        assert hash(f) == hash(f)
        assert {f: 1}[f] == 1
    assert cells != states.render("cat(alpha=2)", grid)
    assert folded != states.render("fock:2", grid)
    assert ref != states.reference("vacuum", grid)
    assert len({cells, folded, product, ref}) == 4
    for f in (folded, product, ref):
        assert "values" not in vars(f)


def test_reference_cells_must_be_finite():
    grid = GridSpec(1, 3.0, 16)
    fold = states.render("vacuum", grid).fold
    assert ReferenceDistribution(grid, None, fold=fold).integrable
    with pytest.raises(ConfigError, match="must be finite"):
        ReferenceDistribution(grid, None, fold=np.where(fold < 0.01, np.inf, fold))
    with pytest.raises(ConfigError, match="must be finite"):
        ReferenceDistribution(grid, np.append(np.ones(grid.size - 1), np.inf))
    # each factor is finite, but their largest cells multiply to overflow
    big = SampledDistribution(grid, np.full(grid.size, 1e200))
    with pytest.raises(ConfigError, match="must be finite"):
        ReferenceDistribution(GridSpec(2, 3.0, 16), None, factors=(big, big))
    # finite cells, but their total overflows
    with pytest.raises(ConfigError, match="must be finite"):
        ReferenceDistribution(grid, np.full(grid.size, 1e307))


def test_reference_of_factors_needs_every_cell_positive():
    # the smallest cells of two factors of mixed sign multiply to 1 > 0,
    # but their product has a cell of -4
    grid, two = GridSpec(1, 1.0, 2), GridSpec(2, 1.0, 2)
    mixed = SampledDistribution(grid, np.array([-1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ConfigError, match="strictly positive"):
        ReferenceDistribution(two, None, factors=(mixed, mixed))
    # two factors negative at every cell give positive cells
    neg = SampledDistribution(grid, np.array([-1.0, -2.0, -3.0, -4.0]))
    assert ReferenceDistribution(two, None, factors=(neg, neg)).values.min() == 1.0
    # a NaN cell is refused
    nan = SampledDistribution(grid, np.array([1.0, math.nan, 3.0, 4.0]))
    pos = SampledDistribution(grid, np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ConfigError, match="strictly positive"):
        ReferenceDistribution(two, None, factors=(pos, nan))


def test_truncation_vacuum_default(half_grid):
    rep = truncation_report(states.render("vacuum", half_grid))
    assert rep.boundary_max < 1e-40
    assert rep.normalization_defect < 1e-6


def _vacuum_on_window(L: float, N: int) -> SampledDistribution:
    spec = GridSpec(modes=1, half_width=L, points_per_axis=N)
    return states.render("vacuum", spec)


@pytest.mark.parametrize(
    "spec", ["vacuum", "fock:3", "thermal(nbar=2)", "tensor(fock:2, fock:2)"]
)
def test_truncation_of_octant_reads_its_last_column(spec):
    # a product reads its octant factors' last columns and their spans
    modes = 2 if spec.startswith("tensor") else 1
    f = states.render(spec, GridSpec(modes, 3.0, 64 // modes))
    forms = (f, *f.factors)
    assert all(h.fold is not None for h in f.factors or forms)
    rep = truncation_report(f)
    assert all("values" not in vars(h) for h in forms)
    want = truncation_report(SampledDistribution(f.grid, f.values))
    assert rep.boundary_max == want.boundary_max
    # the two forms sum their integrals in different orders
    assert rep.normalization_defect == pytest.approx(want.normalization_defect, abs=1e-15)


def test_truncation_tight_window():
    # mass of the hbar=1/2 vacuum inside the square [-L, L]^2 is erf(sqrt(2) L)^2
    rep = truncation_report(_vacuum_on_window(1.0, 200))
    exact_defect = 1.0 - erf(math.sqrt(2.0)) ** 2
    assert rep.normalization_defect == pytest.approx(exact_defect, abs=1e-3)
    # the disk-tail bound exp(-2 L^2) dominates the square-window defect
    assert rep.normalization_defect < math.exp(-2.0)


def test_truncation_defect_decreases_with_window():
    defects = [
        truncation_report(_vacuum_on_window(L, 300)).normalization_defect
        for L in (1.0, 2.0, 3.0)
    ]
    assert defects[0] > defects[1] > defects[2]
    assert defects[2] < 1e-6


def test_midpoint_richardson_ratio():
    # On a window tight enough that the boundary matters, halving the cell
    # size divides the quadrature error by about four (midpoint rule).  On
    # wide windows the error of an entire Gaussian is below double precision.
    exact = erf(math.sqrt(2.0)) ** 2
    err = {}
    for n in (40, 80):
        f = _vacuum_on_window(1.0, n)
        err[n] = abs(f.total_integral - exact)
    ratio = err[40] / err[80]
    assert 3.4 < ratio < 4.6


def test_default_grid_conventions():
    half = default_grid(hbar="half")
    one = default_grid(hbar="one")
    assert one.half_width == pytest.approx(half.half_width * math.sqrt(2.0))
    assert one.points_per_axis == half.points_per_axis
    with pytest.raises(ConfigError):
        default_grid(modes=3)


@pytest.mark.parametrize(
    "grid",
    [
        default_grid(hbar="half"),
        default_grid(hbar="one"),
        GridSpec(1, 1.0, 2),
        GridSpec(1, 3.3, 10),
        GridSpec(1, 7.0, 2100),
        GridSpec(2, 0.1, 58),
        GridSpec(2, 5.0 * math.sqrt(2.0), 64, "one"),
    ],
    ids=["half", "one", "L1-N2", "L3.3-N10", "L7-N2100", "L0.1-N58", "two-one"],
)
def test_axis_exactly_antisymmetric(grid):
    ax = grid.axis()
    assert ax.shape == (grid.points_per_axis,) and (np.diff(ax) > 0).all()
    assert ax.tobytes() == (-ax[::-1]).tobytes()
    # each center is its own rounding of (k + 1/2) * cell_size
    k = np.arange(grid.points_per_axis // 2) + 0.5
    assert ax[grid.points_per_axis // 2:].tobytes() == (k * grid.cell_size).tobytes()


def test_axis_two_mode_default_unchanged():
    # L = 5, N = 64 is exact in both the mirrored and the -L + (k + 1/2) d form
    grid = default_grid(modes=2)
    d = grid.cell_size
    old = -grid.half_width + (np.arange(grid.points_per_axis) + 0.5) * d
    assert grid.axis().tobytes() == old.tobytes()


@pytest.mark.parametrize("points", [64, 350, 700])
@pytest.mark.parametrize("hbar", ["half", "one"])
def test_index_of_cell_centres_is_exact(points, hbar):
    # each centre maps to its own index: on 700 points the quotient by the
    # cell size missed 209 of them by up to 1.1e-13, and not symmetrically
    half_width = (5.0 if points == 64 else 7.0) * (math.sqrt(2.0) if hbar == "one" else 1.0)
    grid = GridSpec(1, half_width, points, hbar)
    index = grid.index_of(grid.axis())
    assert index.tobytes() == np.arange(points, dtype=float).tobytes()
    # any other coordinate in the window keeps that quotient
    others = np.linspace(-half_width, half_width, 1001)
    others = others[~np.isin(others, grid.axis())]
    want = (others + half_width) / grid.cell_size - 0.5
    assert grid.index_of(others).tobytes() == want.tobytes()


def test_renormalized(half_grid):
    f = SampledDistribution(half_grid, states.render("vacuum", half_grid).values * 0.5)
    g = f.renormalized()
    assert g.total_integral == pytest.approx(1.0, rel=1e-12)
