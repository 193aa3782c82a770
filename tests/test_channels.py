from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from qmaj import states
from qmaj.channels import (
    DilationClass,
    GaussianChannelSpec,
    StochasticityClass,
    SymplecticDilation,
    amplifier_channel,
    apply_dephasing,
    apply_gaussian,
    beamsplitter_dilation,
    classify_dilation,
    classify_gaussian,
    lon_to_gaussian,
    phase_conjugation_channel,
    pure_loss_channel,
    pure_loss_fock,
    rotation_channel,
    two_mode_squeezer_dilation,
    _convention_scaled,
    _convolve_same,
    _gaussian_kernel,
)
from qmaj.compare import Outcome, compare
from qmaj.errors import ChannelError, ConfigError, LeakageError
from qmaj.grids import GridSpec, SampledDistribution, _orbits, _restrict

IDENTITY = GaussianChannelSpec(np.eye(2), np.zeros((2, 2)))

# a quarter turn with exact zeros: Y = 0 and X a signed permutation, so it
# commutes with the octant but needs no convolution (rotation_channel(pi/2)
# holds cos(pi/2) = 6e-17 and so takes the values path)
QUARTER_TURN = GaussianChannelSpec(
    np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2))
)


def _displacement(dx: float, dp: float) -> GaussianChannelSpec:
    return GaussianChannelSpec(np.eye(2), np.zeros((2, 2)), np.array([dx, dp]))


def test_identity_channel_exact(fock):
    out = apply_gaussian(IDENTITY, fock[0])
    assert np.abs(out.values - fock[0].values).max() < 1e-12


def test_identity_resample_keeps_every_cell():
    # the cell centres map to their indices exactly, so the values path
    # reads each cell where it is; an index 1e-14 below 0 fell outside the
    # spline and zeroed the edge row of a state that reaches it
    f = states.render("cubic(g=0.02, s=0.1)", GridSpec(1, 7.0, 350))
    assert f.fold is None and np.abs(f.as_nd()[0]).max() > 1e-5
    out = apply_gaussian(IDENTITY, f)
    assert np.abs(out.values - f.values).max() <= 4e-15 * np.abs(f.values).max()


def test_plc_vacuum_fixed_point(fock, one_grid):
    plc = pure_loss_channel(0.7)
    out = apply_gaussian(plc, fock[0])
    assert np.abs(out.values - fock[0].values).max() < 1e-4
    vac_one = states.render("vacuum", one_grid)
    out_one = apply_gaussian(plc, vac_one)
    assert np.abs(out_one.values - vac_one.values).max() < 1e-4


def test_displacement_gives_coherent(one_grid):
    vac = states.render("vacuum", one_grid)
    out = apply_gaussian(_displacement(0.62, -0.34), vac)
    alpha = (0.62 - 0.34j) / math.sqrt(2.0)
    target = states.render(states.Coherent(alpha), one_grid)
    assert np.abs(out.values - target.values).max() < 1e-4


def test_pure_loss_fock_weights():
    assert pure_loss_fock(1, 0.7) == pytest.approx({0: 0.3, 1: 0.7})
    assert pure_loss_fock(3, 1.0) == pytest.approx({0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0})
    assert pure_loss_fock(4, 0.0)[0] == pytest.approx(1.0)
    with pytest.raises(ChannelError):
        pure_loss_fock(2, 1.2)


def test_plc_matches_binomial_mixture(fock, half_grid):
    plc = pure_loss_channel(0.7)
    out = apply_gaussian(plc, fock[3])
    target = states.render("lossy(eta=0.7, fock:3)", half_grid)
    assert np.abs(out.values - target.values).max() < 1e-3


@pytest.mark.parametrize("ch", [pure_loss_channel(0.7), amplifier_channel(2.0)])
def test_convolution_matches_fftconvolve(fock, ch):
    from scipy.signal import fftconvolve

    grid = fock[3].grid
    kern = _gaussian_kernel(_convention_scaled(ch, grid)[1], grid)
    ref = fftconvolve(fock[3].as_nd(), kern, mode="same")
    out = _convolve_same(fock[3].as_nd(), kern)
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_apply_gaussian_preserves_integral(fock):
    for ch in (pure_loss_channel(0.3), amplifier_channel(1.3)):
        out = apply_gaussian(ch, fock[2])
        assert abs(out.total_integral - 1.0) < 1e-3


def test_sds_channel_never_gains_order(fock, zoo):
    # the whole zoo: an amplifying kernel can only lose order
    amp = amplifier_channel(1.3)
    for name, f in {**zoo, "fock2": fock[2]}.items():
        out = apply_gaussian(amp, f)
        verdict = compare(f, out, eps_norm=2e-3)
        assert verdict.outcome in (Outcome.MAJORIZES, Outcome.EQUIVALENT), name


@pytest.mark.parametrize("eta", [0.3, 0.7, 0.9])
def test_plc_relative_monotonicity(fock, vacuum_ref, eta):
    plc = pure_loss_channel(eta)
    for f in (fock[1], fock[2]):
        out = apply_gaussian(plc, f)
        verdict = compare(f, out, vacuum_ref, eps_norm=2e-3)
        assert verdict.outcome in (Outcome.MAJORIZES, Outcome.EQUIVALENT)


def test_apply_gaussian_validation(fock):
    with pytest.raises(ChannelError):
        apply_gaussian(GaussianChannelSpec(np.zeros((2, 2)), np.zeros((2, 2))), fock[0])
    with pytest.raises(ChannelError):
        GaussianChannelSpec(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ChannelError):
        apply_gaussian(
            GaussianChannelSpec(np.eye(2), -0.1 * np.eye(2)), fock[0]
        )
    bad = np.array([[math.nan, 0.0], [0.0, 1.0]])
    for args in ((bad, np.zeros((2, 2))), (np.eye(2), np.diag([math.inf, 1.0])),
                 (np.eye(2), np.zeros((2, 2)), [math.nan, 0.0])):
        with pytest.raises(ChannelError, match="finite"):
            GaussianChannelSpec(*args)
    for value in (math.inf, math.nan):
        with pytest.raises(ChannelError, match="finite"):
            amplifier_channel(value)
        with pytest.raises(ChannelError, match="finite"):
            phase_conjugation_channel(value)


def test_leakage_detection(fock):
    # a displacement beyond the window pushes visible mass off the grid
    with pytest.raises(LeakageError):
        apply_gaussian(_displacement(9.0, 0.0), fock[0])
    # a NaN defect is no evidence that the mass stayed on the grid
    values = fock[0].values.copy()
    values[0] = math.nan
    with pytest.raises(LeakageError):
        apply_gaussian(IDENTITY, SampledDistribution(fock[0].grid, values))
    # an amplifier on a small window, from an octant to an octant
    small = states.render("fock:1", GridSpec(1, 3.0, 60))
    assert small.fold is not None
    with pytest.raises(LeakageError):
        apply_gaussian(amplifier_channel(2.0), small)
    # and a NaN in an octant, through the 1-D passes with and without noise
    octant = small.fold.copy()
    octant[len(octant) // 2] = math.nan
    holed = SampledDistribution(small.grid, None, fold=octant)
    for ch in (pure_loss_channel(0.7), IDENTITY):
        with pytest.raises(LeakageError):
            apply_gaussian(ch, holed)


# a rotation-invariant state, so its render is built from its octant
OCTANT_INPUT = "lossy(eta=0.7, fock:1)"


def _lossy_octant(grid):
    f = states.render(OCTANT_INPUT, grid)
    assert f.fold is not None
    return f


def _octant_inputs():
    # on both coordinate conventions, a rotation-invariant octant and one
    # whose harmonics 4, 8, ... a dephasing filter must damp
    grids = [GridSpec(1, 7.0, 350), GridSpec(1, 7.0 * math.sqrt(2.0), 350, "one")]
    return [make(grid) for grid in grids for make in (_lossy_octant, _d4_octant)]


def _d4_octant(grid):
    """exp(-(x^4 + p^4) / 4) (1 + 0.3 cos(4 phi) r^4 / (1 + r^4)), normalized.

    It is symmetric under the grid's mirrors and transpose but not under
    every rotation, so dephasing damps its harmonics 4, 8, ...  Its factor
    r^4 cos(4 phi) / (1 + r^4) is a smooth function of x and p, where
    cos(4 phi) alone would jump from cell to cell at the origin.
    """
    x, p = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    r4 = (x * x + p * p) ** 2
    harmonic = x**4 - 6.0 * x * x * p * p + p**4  # r^4 cos(4 phi)
    cells = np.exp(-(x**4 + p**4) / 4.0) * (1.0 + 0.3 * harmonic / (1.0 + r4))
    octant = cells.ravel()[_orbits(grid, "xpt").cells]
    f = SampledDistribution(grid, None, fold=octant)
    return SampledDistribution(grid, None, fold=f.fold / f.total_integral)


@pytest.mark.parametrize(
    "apply",
    [
        partial(apply_gaussian, pure_loss_channel(0.7)),
        partial(apply_gaussian, amplifier_channel(2.0)),
        partial(apply_gaussian, phase_conjugation_channel(0.8)),
        partial(apply_gaussian, IDENTITY),
        partial(apply_gaussian, QUARTER_TURN),
    ],
    ids=["plc", "amp", "pconj", "identity", "quarter_turn"],
)
def test_covariant_channel_keeps_the_octant(apply):
    for f in _octant_inputs():
        full = SampledDistribution(f.grid, f.values)
        out, want = apply(f), apply(full)
        assert out.fold is not None and want.fold is None
        scale = np.abs(want.values).max()
        got = _restrict(f.grid, out.fold, "xpt")
        assert np.abs(got - want.values).max() <= 1e-14 * scale
        assert abs(out.total_integral - want.total_integral) <= 1e-14


@pytest.mark.parametrize(
    "apply",
    [
        partial(apply_gaussian, rotation_channel(0.3)),
        partial(apply_gaussian, GaussianChannelSpec(np.eye(2), 0.2 * np.eye(2), [0.3, 0.0])),
        partial(apply_gaussian, GaussianChannelSpec(np.eye(2), np.diag([0.2, 0.3]))),
        partial(apply_dephasing, 0.5),
        partial(apply_dephasing, 0.05),
        partial(apply_dephasing, 5.0),
        partial(apply_dephasing, 50.0),
    ],
    ids=["rotation", "displaced", "anisotropic", "dephase", "dephase_0.05",
         "dephase_5", "dephase_50"],
)
def test_other_channel_gives_values(apply):
    # the value path is unchanged, so the output is bitwise that of the
    # same function given by its values; dephasing reads an octant this way
    for f in _octant_inputs():
        full = SampledDistribution(f.grid, f.values)
        out, want = apply(f), apply(full)
        assert out.fold is None
        np.testing.assert_array_equal(out.values, want.values)
        assert out.total_integral == want.total_integral


def test_dephasing_fock_invariant(fock):
    out = apply_dephasing(10.0, fock[2])
    assert np.abs(out.values - fock[2].values).max() < 1e-4


def test_dephasing_vacuum_tight(fock):
    out = apply_dephasing(10.0, fock[0])
    assert np.abs(out.values - fock[0].values).max() < 1e-6


def test_dephasing_normalization(zoo):
    out = apply_dephasing(2.0, zoo["cat2"])
    assert abs(out.total_integral - 1.0) < 1e-3


def test_strong_dephasing_ring_state(half_grid):
    # wide angle window: approaches the phase-averaged ring, which the
    # coherent input majorizes (mixtures of rotations are doubly stochastic)
    coh = states.render("coherent(alpha=1.5)", half_grid)
    ring = apply_dephasing(0.01, coh)
    assert compare(coh, ring).outcome is Outcome.MAJORIZES


def _rotation_average(gamma, f):
    """64-node Gauss-Hermite average of spline-rotated copies of f."""
    from scipy.ndimage import map_coordinates

    grid = f.grid
    x, p = grid.mesh()
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    out = np.zeros(grid.shape)
    for t, w in zip(nodes, weights / math.sqrt(math.pi)):
        phi = t * math.sqrt(2.0 / gamma)
        c, s = math.cos(phi), math.sin(phi)
        coords = np.stack(
            [
                grid.index_of(np.broadcast_to(c * x + s * p, grid.shape)),
                grid.index_of(np.broadcast_to(-s * x + c * p, grid.shape)),
            ]
        )
        out += w * map_coordinates(f.as_nd(), coords, order=3, mode="constant")
    return out


@pytest.mark.parametrize("gamma", [2.0, 10.0])
def test_dephasing_matches_rotation_average(gamma):
    f = states.render("cat(alpha=2)", GridSpec(1, 7.0, 350))
    out = apply_dephasing(gamma, f)
    assert np.abs(out.as_nd() - _rotation_average(gamma, f)).max() < 1e-5


def test_dephasing_composition_law(zoo):
    # angle variances add: 1/3 + 1/6 = 1/2
    f = zoo["cat2"]
    twice = apply_dephasing(3.0, apply_dephasing(6.0, f))
    once = apply_dephasing(2.0, f)
    assert np.abs(twice.values - once.values).max() < 1e-5


def test_dephasing_quadrature_validation(fock):
    for gamma in (-1.0, 0.0, math.nan, math.inf, float("1e999")):
        with pytest.raises(ConfigError):
            apply_dephasing(gamma, fock[0])


def test_classify_gaussian():
    assert classify_gaussian(pure_loss_channel(0.7)) is StochasticityClass.ATTENUATING
    assert (
        classify_gaussian(GaussianChannelSpec(math.sqrt(2) * np.eye(2), np.eye(2)))
        is StochasticityClass.SDS
    )
    assert classify_gaussian(rotation_channel(0.3)) is StochasticityClass.DS
    assert classify_gaussian(phase_conjugation_channel(1.2)) is StochasticityClass.SDS
    assert classify_gaussian(phase_conjugation_channel(0.5)) is StochasticityClass.ATTENUATING


def test_classify_dilation_beamsplitter():
    label, value = classify_dilation(beamsplitter_dilation(0.7))
    assert label is DilationClass.NOT_SDS
    assert value == pytest.approx(0.7, abs=1e-9)
    label, value = classify_dilation(beamsplitter_dilation(1.0))
    assert label is DilationClass.DS
    assert value == pytest.approx(1.0, abs=1e-9)


def test_classify_dilation_squeezer():
    r = 0.8
    label, value = classify_dilation(two_mode_squeezer_dilation(r))
    assert label is DilationClass.SDS
    assert value == pytest.approx(math.cosh(r) ** 2, abs=1e-9)


def test_dilation_consistency_with_kernel_class():
    gain = 2.0
    assert classify_gaussian(amplifier_channel(gain)) is StochasticityClass.SDS
    r = math.acosh(math.sqrt(gain))
    label, _ = classify_dilation(two_mode_squeezer_dilation(r))
    assert label is DilationClass.SDS


def test_dilation_validation():
    with pytest.raises(ChannelError):
        SymplecticDilation(np.eye(4) * 2.0, 1, 1)


def test_lon_phase_shifter():
    ch = lon_to_gaussian(np.array([[np.exp(1j * 0.4)]]))
    assert np.abs(ch.Y).max() < 1e-12
    expected = np.array(
        [[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]]
    )
    np.testing.assert_allclose(ch.X, expected, atol=1e-12)
    assert classify_gaussian(ch) is StochasticityClass.DS


def test_lon_pure_loss():
    ch = lon_to_gaussian(np.array([[math.sqrt(0.7)]]))
    plc = pure_loss_channel(0.7)
    np.testing.assert_allclose(ch.X, plc.X, atol=1e-12)
    np.testing.assert_allclose(ch.Y, plc.Y, atol=1e-12)


def test_lon_two_mode_unitary():
    u = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
    ch = lon_to_gaussian(u)
    assert np.abs(ch.Y).max() < 1e-12
    omega = np.array(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
    )
    np.testing.assert_allclose(ch.X.T @ omega @ ch.X, omega, atol=1e-12)


def test_lon_rejects_gainy_matrix():
    with pytest.raises(ChannelError):
        lon_to_gaussian(np.array([[1.2]]))
