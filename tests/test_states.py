from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qmaj.compare import Outcome, compare, statement4_check
from qmaj.errors import (
    ConfigError,
    NumericsError,
    NyquistError,
    ParseError,
    SpecValidationError,
    UnsupportedStateError,
)
from qmaj.grids import (
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
    default_grid,
    truncation_report,
)
from qmaj.monotones import negative_volume
from qmaj.rearrange import relative_lorenz_curves
from qmaj.states import (
    ON,
    Cat,
    Coherent,
    Cubic,
    Dephase,
    Fock,
    Lossy,
    Mix,
    Tensor,
    Thermal,
    cubic_phase_wavefunction,
    harmonic_eigenfunction,
    parse_state,
    pretty,
    reference,
    render,
    wigner_from_wavefunction,
)


# -- parsing ------------------------------------------------------------------

def test_parse_atoms():
    assert parse_state("fock:4") == Fock(4)
    assert parse_state("vacuum") == Fock(0)
    assert parse_state("  fock : 2 ") == Fock(2)


def test_parse_fig3_mixture():
    spec = parse_state("mix(0.75:cat(alpha=2), 0.25:fock:7)")
    assert spec == Mix((0.75, 0.25), (Cat(2.0), Fock(7)))


def test_parse_lossy():
    spec = parse_state("lossy(eta=0.7, fock:1)")
    assert spec == Lossy(0.7, Fock(1))


def test_parse_complex_scalars():
    spec = parse_state("coherent(alpha=1+0.5i)")
    assert spec == Coherent(1 + 0.5j)
    assert parse_state("coherent(alpha=2)") == Coherent(2.0 + 0j)
    assert parse_state("thermal(nbar=-1)") == Thermal(-1.0)


def test_parse_nested():
    spec = parse_state("tensor(cubic(g=0.02, s=0.1), vacuum)")
    assert spec == Tensor((Cubic(0.02, 0.1), Fock(0)))
    assert spec.modes == 2


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_state("fock:4)")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse_state("mix(0.75:cat(alpha=2)")  # unclosed
    with pytest.raises(ParseError):
        parse_state("waffle(x=1)")
    with pytest.raises(ParseError):
        parse_state("on(a=1, n=2.5)")  # fock:2.5 is rejected alike
    # a scalar beyond the float range is an error at the scalar
    for text, at in (("cat(alpha=1e999)", 10), ("on(a=1e999,n=1)", 5),
                     ("coherent(alpha=1-1e999i)", 15), ("mix(1e999:vacuum)", 4)):
        with pytest.raises(ParseError) as err:
            parse_state(text)
        assert err.value.position == at


def test_parse_semantic_errors():
    with pytest.raises(SpecValidationError):
        parse_state("mix(0.8:vacuum, 0.3:fock:1)")  # weights exceed 1
    with pytest.raises(SpecValidationError):
        parse_state("lossy(eta=1.5, fock:1)")
    with pytest.raises(SpecValidationError):
        parse_state("tensor(vacuum, vacuum, vacuum)")  # arity cap
    with pytest.raises(SpecValidationError):
        parse_state("lossy(eta=0.5, tensor(vacuum, vacuum))")  # one-mode channels
    with pytest.raises(SpecValidationError):
        parse_state("dephase(gamma=1, tensor(vacuum, vacuum))")
    with pytest.raises(SpecValidationError):
        Dephase(float("nan"), Fock(0))
    with pytest.raises(SpecValidationError):
        parse_state("on(a=1e200, n=1)")  # |a|^2 overflows
    with pytest.raises(SpecValidationError):
        ON(1e160 + 1e160j, 2)


def test_parse_rejects_stray_arguments():
    with pytest.raises(ParseError):
        parse_state("coherent(alpha=2, vacuum)")
    with pytest.raises(ParseError):
        parse_state("lossy(eta=0.5, vacuum, vacuum)")
    with pytest.raises(ParseError):
        parse_state("thermal(nbar=1, 0.5:vacuum)")


def test_pretty_round_trip():
    zoo = [
        Fock(0),
        Fock(7),
        Coherent(1 + 0.5j),
        Coherent(-2.0 + 0j),
        Thermal(0.4),
        Cat(2.0),
        ON(2 + 0j, 3),
        Cubic(0.02, 0.1),
        Lossy(0.7, Fock(1)),
        Dephase(0.5, Coherent(1.5 + 0j)),
        Mix((0.75, 0.25), (Cat(2.0), Fock(7))),
        Tensor((Fock(2), Fock(2))),
    ]
    for spec in zoo:
        assert parse_state(pretty(spec)) == spec


# -- rendering ----------------------------------------------------------------

def test_vacuum_peak_value(half_grid):
    f = render("vacuum", half_grid)
    assert f.values.max() == pytest.approx(2.0 / math.pi, abs=1e-3)


def test_vacuum_peak_value_one(one_grid):
    f = render("vacuum", one_grid)
    assert f.values.max() == pytest.approx(1.0 / math.pi, abs=1e-3)


def test_on_state_matches_formula(half_grid):
    f = render("on(a=2, n=3)", half_grid)
    rng = np.random.default_rng(3)
    ax = half_grid.axis()
    n = half_grid.points_per_axis
    for _ in range(5):
        i, j = rng.integers(0, n, size=2)
        x, p = ax[i], ax[j]
        r2 = x * x + p * p
        w = abs(2.0) ** 2
        expected = (
            (2 / math.pi) * math.exp(-2 * r2) / (1 + w)
            + w / (1 + w) * (2 / math.pi) * math.exp(-2 * r2) * (-1) ** 3
            * (1 - 3 * 4 * r2 + 1.5 * (4 * r2) ** 2 - (4 * r2) ** 3 / 6)
            + (2 * (2 * (x - 1j * p) ** 3).real)
            * math.exp(-r2)
            / (2 * math.pi * math.sqrt(6.0) * (1 + w))
        )
        assert f.values[i * n + j] == pytest.approx(expected, abs=1e-12)


def test_zoo_normalization(zoo):
    for name, f in zoo.items():
        assert f.total_integral == pytest.approx(1.0, abs=1e-4), name


def test_husimi_nonnegative(half_grid):
    for spec in ("fock:3", "cat(alpha=2)", "on(a=2,n=3)", "thermal(nbar=0.4)"):
        f = render(spec, half_grid, rep="husimi")
        assert (f.values >= 0).all()
        assert f.total_integral == pytest.approx(1.0, abs=1e-4)


def test_positive_wigner_states(zoo):
    assert (zoo["thermal04"].values >= 0).all()
    assert (zoo["coherent"].values >= 0).all()


def test_fock_negativity(fock):
    for n in range(1, 6):
        assert negative_volume(fock[n]) > 0.01


def test_dephase_render(half_grid):
    f = render("dephase(gamma=10, fock:2)", half_grid)
    target = render("fock:2", half_grid)
    assert np.abs(f.values - target.values).max() < 1e-4


def test_thermal_negative_rejected_as_state(half_grid):
    with pytest.raises(SpecValidationError):
        render("thermal(nbar=-1)", half_grid)


def test_reference_thermal_negative(half_grid):
    q = reference("thermal(nbar=-1)", half_grid)
    assert not q.integrable
    nd = q.values.reshape(half_grid.shape)
    assert nd[0, 0] > nd[half_grid.points_per_axis // 2, half_grid.points_per_axis // 2]
    q20 = reference("thermal(nbar=-20)", half_grid)
    assert not q20.integrable
    with pytest.raises(SpecValidationError):
        reference("thermal(nbar=-0.5)", half_grid)


def test_reference_rejects_signed_states(half_grid):
    with pytest.raises(ConfigError):
        reference("fock:1", half_grid)


def test_reference_positive_temperature(half_grid):
    q = reference("thermal(nbar=4)", half_grid)
    assert q.integrable
    assert q.total_integral == pytest.approx(1.0, abs=1e-4)


def test_hierarchy_collapses_at_high_temperature(fock, half_grid):
    hot = reference("thermal(nbar=4)", half_grid)
    assert compare(fock[1], fock[0], hot).outcome is Outcome.INCOMPARABLE


def test_render_mode_mismatch(half_grid):
    with pytest.raises(ConfigError):
        render("tensor(vacuum, vacuum)", half_grid)


def test_husimi_cubic_unsupported(half_grid):
    with pytest.raises(UnsupportedStateError):
        render("cubic(g=0.02, s=0.1)", half_grid, rep="husimi")


def test_lossy_requires_fock_diagonal(half_grid):
    with pytest.raises(UnsupportedStateError):
        render("lossy(eta=0.5, coherent(alpha=1))", half_grid)


def test_tensor_render_is_product(half_grid):
    two = GridSpec(modes=2, half_width=3.0, points_per_axis=32)
    f = render("tensor(vacuum, fock:1)", two)
    a = render("vacuum", GridSpec(1, 3.0, 32))
    b = render("fock:1", GridSpec(1, 3.0, 32))
    outer = np.multiply.outer(a.as_nd(), b.as_nd())
    np.testing.assert_allclose(f.as_nd(), outer, atol=1e-14)
    assert [h.grid for h in f.factors] == [a.grid, b.grid]
    factors = np.multiply.outer(*(h.as_nd() for h in f.factors))
    np.testing.assert_array_equal(f.as_nd(), factors)
    mixed = render("mix(0.5:tensor(vacuum, fock:1), 0.5:tensor(fock:1, vacuum))", two)
    assert mixed.factors == ()


def test_criterion7_builds_no_cell_array():
    # every step of the two-mode criterion reads the factors; one cell array
    # of the 64^4 grid is 128 MiB
    grid = default_grid(modes=2)
    tracemalloc.start()
    try:
        pair = render("tensor(fock:2, fock:2)", grid)
        cubic = render("tensor(cubic(g=0.02, s=0.1), vacuum)", grid)
        q = reference("tensor(vacuum, vacuum)", grid)
        for f in (pair, cubic):
            truncation_report(f)
            relative_lorenz_curves(f, q)
        compare(pair, cubic, q, eps_norm=2e-2)
        statement4_check(pair, cubic, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.size * 8


@pytest.mark.parametrize("hbar", ["half", "one"])
def test_factored_summaries_match_cells(hbar):
    grid = GridSpec(2, 3.0 if hbar == "half" else 3.0 * math.sqrt(2.0), 16, hbar)
    cases = [
        ("tensor(fock:2, fock:2)", "wigner"),
        ("tensor(cubic(g=0.02, s=0.1), vacuum)", "wigner"),
        ("tensor(vacuum, fock:1)", "wigner"),
        ("tensor(cat(alpha=1), thermal(nbar=0.5))", "wigner"),
        ("tensor(fock:2, fock:2)", "husimi"),
        ("tensor(vacuum, fock:1)", "husimi"),
        ("tensor(cat(alpha=1), thermal(nbar=0.5))", "husimi"),
    ]
    for spec, rep in cases:
        f = render(spec, grid, rep)
        outer = np.multiply.outer(*(h.values for h in f.factors)).ravel()
        np.testing.assert_array_equal(f.values, outer)
        cells = SampledDistribution(grid, f.values)
        assert f.total_integral == pytest.approx(cells.total_integral, rel=1e-15)
        report, want = truncation_report(f), truncation_report(cells)
        assert report.boundary_max == want.boundary_max
        assert report.normalization_defect == pytest.approx(
            want.normalization_defect, rel=0, abs=1e-15
        )
    for spec, rep in [
        ("tensor(vacuum, vacuum)", "wigner"),
        ("tensor(thermal(nbar=0.5), vacuum)", "wigner"),
        ("tensor(fock:2, fock:2)", "husimi"),
    ]:
        q = reference(spec, grid, rep)
        assert q.factors
        np.testing.assert_array_equal(q.values, render(spec, grid, rep).values)
        cells = ReferenceDistribution(grid, q.values)
        assert q.total_integral == pytest.approx(cells.total_integral, rel=1e-15)
    for spec in ("tensor(fock:1, vacuum)", "tensor(vacuum, fock:1)"):
        with pytest.raises(ConfigError):
            reference(spec)


@pytest.mark.parametrize(
    "spec, half_width, rep",
    [
        ("tensor(vacuum, vacuum)", 5.0, "wigner"),
        ("tensor(fock:2, fock:2)", 5.0, "husimi"),
        ("tensor(fock:1, vacuum)", 5.0, "wigner"),  # no cell near the origin
        ("tensor(fock:1, vacuum)", 1.0, "wigner"),  # one factor of both signs
        ("tensor(fock:1, fock:1)", 0.3, "wigner"),  # both factors negative
        ("tensor(fock:1, vacuum)", 0.3, "wigner"),  # one factor negative
        ("tensor(vacuum, vacuum)", 13.0, "wigner"),  # corner cells underflow
    ],
)
def test_reference_positivity_read_from_factors(spec, half_width, rep):
    # the factor check accepts exactly the products whose every cell is > 0
    grid = GridSpec(2, half_width, 4)
    f = render(spec, grid, rep)
    if (f.values > 0).all():
        np.testing.assert_array_equal(reference(spec, grid, rep).values, f.values)
    else:
        with pytest.raises(ConfigError):
            reference(spec, grid, rep)


# -- wavefunction transform ---------------------------------------------------

def test_wavefunction_vacuum_consistency(half_grid):
    x = np.arange(-8.0, 8.0, 0.01)
    w = wigner_from_wavefunction(harmonic_eigenfunction(0, x), x, half_grid)
    target = render("vacuum", half_grid)
    assert np.abs(w.values - target.values).max() < 1e-4
    assert w.total_integral == pytest.approx(1.0, abs=1e-3)


def test_wavefunction_hermite1_consistency(half_grid):
    x = np.arange(-8.0, 8.0, 0.01)
    w = wigner_from_wavefunction(harmonic_eigenfunction(1, x), x, half_grid)
    target = render("fock:1", half_grid)
    assert np.abs(w.values - target.values).max() < 1e-4


def test_wavefunction_hbar_one():
    grid = default_grid(hbar="one")
    x = np.arange(-11.0, 11.0, 0.01)
    w = wigner_from_wavefunction(harmonic_eigenfunction(0, x, hbar="one"), x, grid)
    target = render("vacuum", grid)
    assert np.abs(w.values - target.values).max() < 1e-4


def test_cubic_state_negativity(half_grid):
    f = render("cubic(g=0.02, s=0.1)", half_grid)
    assert f.total_integral == pytest.approx(1.0, abs=1e-3)
    assert negative_volume(f) > 1e-3
    rep = truncation_report(f)
    assert rep.normalization_defect < 1e-3


def test_wavefunction_norm_validation(half_grid):
    x = np.arange(-8.0, 8.0, 0.01)
    with pytest.raises(NumericsError):
        wigner_from_wavefunction(2.0 * harmonic_eigenfunction(0, x), x, half_grid)


def test_wavefunction_nyquist_check(half_grid):
    x = np.arange(-8.0, 8.0, 0.2)  # far too coarse for |p| <= 7
    psi = harmonic_eigenfunction(0, x)
    psi = psi / math.sqrt(float((np.abs(psi) ** 2).sum() * 0.2))
    with pytest.raises(NyquistError):
        wigner_from_wavefunction(psi, x, half_grid)


def test_cubic_wavefunction_reduces_to_vacuum():
    x = np.arange(-8.0, 8.0, 0.01)
    psi = cubic_phase_wavefunction(0.0, 1.0, x)
    np.testing.assert_allclose(psi.real, harmonic_eigenfunction(0, x), atol=1e-12)
