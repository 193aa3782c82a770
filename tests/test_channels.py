from __future__ import annotations

import math

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
    displacement_channel,
    identity_channel,
    lon_to_gaussian,
    phase_conjugation_channel,
    pure_loss_channel,
    pure_loss_fock,
    rotation_channel,
    two_mode_squeezer_dilation,
)
from qmaj.compare import Outcome, compare
from qmaj.errors import ChannelError, ConfigError, LeakageError

def test_identity_channel_exact(fock):
    out = apply_gaussian(identity_channel(), fock[0])
    assert np.abs(out.values - fock[0].values).max() < 1e-12


def test_plc_vacuum_fixed_point(fock, one_grid):
    plc = pure_loss_channel(0.7)
    out = apply_gaussian(plc, fock[0])
    assert np.abs(out.values - fock[0].values).max() < 1e-4
    vac_one = states.render("vacuum", one_grid)
    out_one = apply_gaussian(plc, vac_one)
    assert np.abs(out_one.values - vac_one.values).max() < 1e-4


def test_displacement_gives_coherent(one_grid):
    vac = states.render("vacuum", one_grid)
    out = apply_gaussian(displacement_channel(0.62, -0.34), vac)
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


def test_leakage_detection(fock):
    # a displacement beyond the window pushes visible mass off the grid
    with pytest.raises(LeakageError):
        apply_gaussian(displacement_channel(9.0, 0.0), fock[0])


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


def test_dephasing_quadrature_validation(fock):
    with pytest.raises(ConfigError):
        apply_dephasing(-1.0, fock[0])


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
