from __future__ import annotations

import numpy as np
import pytest

from qmaj import states
from qmaj.compare import (
    Outcome,
    _key_breakpoints,
    compare,
    ratio_breakpoints,
    scan_threshold,
    statement4_check,
)
from qmaj.errors import (
    ConfigError,
    GridMismatchError,
    NormalizationError,
    ScanError,
)
from qmaj.grids import DiscreteSpace, GridSpec, SampledDistribution
from qmaj.rearrange import _rearrange


def test_reflexivity(fock):
    assert compare(fock[2], fock[2]).outcome is Outcome.EQUIVALENT


@pytest.mark.parametrize("pair", [(0, 1), (1, 2), (0, 4), (2, 3)])
def test_fock_states_incomparable_regular(fock, pair):
    m, n = pair
    verdict = compare(fock[m], fock[n])
    assert verdict.outcome is Outcome.INCOMPARABLE
    assert verdict.witness is not None and verdict.witness_reverse is not None


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_fock_hierarchy_relative_to_vacuum(fock, vacuum_ref, n):
    verdict = compare(fock[n + 1], fock[n], vacuum_ref)
    assert verdict.outcome is Outcome.MAJORIZES


def test_antisymmetry(fock, vacuum_ref):
    assert compare(fock[3], fock[2], vacuum_ref).outcome is Outcome.MAJORIZES
    assert compare(fock[2], fock[3], vacuum_ref).outcome is Outcome.MAJORIZED_BY


def test_transitivity_spot_check(fock, vacuum_ref):
    for n in range(4):
        assert compare(fock[4], fock[n], vacuum_ref).outcome is Outcome.MAJORIZES


def test_coherent_equivalent_to_vacuum(half_grid, fock):
    # grid-aligned displacement: identical value multisets up to the boundary
    aligned = states.render("coherent(alpha=0.5+0.26i)", half_grid)
    assert compare(aligned, fock[0]).outcome is Outcome.EQUIVALENT
    # a displacement that does not land on the cell lattice
    misaligned = states.render("coherent(alpha=0.513)", half_grid)
    assert compare(misaligned, fock[0]).outcome is Outcome.EQUIVALENT


def test_fig4_lossy_fock_incomparable(zoo, fock):
    verdict = compare(fock[4], zoo["lossy1"])
    assert verdict.outcome is Outcome.INCOMPARABLE


def test_equal_purity_pure_states_never_dominate(zoo, fock):
    # equal L2 norm forces equivalence or incomparability
    pure = [fock[1], fock[2], fock[3], zoo["cat2"]]
    for i, f in enumerate(pure):
        for g in pure[i + 1:]:
            outcome = compare(f, g).outcome
            assert outcome in (Outcome.EQUIVALENT, Outcome.INCOMPARABLE)


def test_normalization_mismatch_raises(half_grid, fock):
    scaled = SampledDistribution(half_grid, fock[0].values * 0.9)
    with pytest.raises(NormalizationError):
        compare(fock[0], scaled)


def test_nan_integral_raises(fock):
    # a NaN cell makes the integral NaN, which no eps_norm can match
    values = fock[2].values.copy()
    values[0] = np.nan
    f = SampledDistribution(fock[2].grid, values)
    with pytest.raises(NormalizationError):
        compare(f, fock[2])
    with pytest.raises(NormalizationError):
        compare(fock[2], f, eps_norm=1e300)


def test_grid_mismatch_raises(fock):
    other = GridSpec(modes=1, half_width=7.0, points_per_axis=100)
    g = states.render("vacuum", other)
    with pytest.raises(GridMismatchError):
        compare(fock[0], g)
    f = states.render("fock:1", GridSpec(points_per_axis=60))
    g = states.render("fock:2", GridSpec(points_per_axis=80))
    with pytest.raises(GridMismatchError):
        statement4_check(f, g)


def test_zero_tolerance_accepted():
    f = states.render("fock:1", GridSpec(points_per_axis=60))
    assert compare(f, f, eps_cmp=0.0, eps_norm=0.0).outcome is Outcome.EQUIVALENT
    result = statement4_check(f, f, eps_cmp=0.0)
    assert result.forward and result.backward


@pytest.mark.parametrize("eps", [float("nan"), -1e-4, float("inf")])
def test_bad_tolerance_raises(eps):
    f = states.render("fock:1", GridSpec(points_per_axis=60))
    with pytest.raises(ConfigError):
        compare(f, f, eps_cmp=eps)
    with pytest.raises(ConfigError):
        compare(f, f, eps_norm=eps)
    with pytest.raises(ConfigError):
        statement4_check(f, f, eps_cmp=eps)


@pytest.mark.parametrize(
    "u_grid", [[], [-0.5], [0.0, np.nan], [np.inf], [1.0, -np.inf]]
)
def test_statement4_rejects_bad_u_grid(fock, u_grid):
    with pytest.raises(ConfigError):
        statement4_check(fock[1], fock[1], u_grid=u_grid)


def test_statement4_discrete_hand_example():
    space = DiscreteSpace(2)
    f = SampledDistribution(space, np.array([2.0, -1.0]))
    g = SampledDistribution(space, np.array([1.0, 0.0]))
    result = statement4_check(f, g, u_grid=[0.0, 0.5, 1.0, 2.0])
    assert result.forward and not result.backward


def test_statement4_reflexive(fock):
    result = statement4_check(fock[1], fock[1])
    assert result.forward and result.backward


def test_key_breakpoints_match_ratio_breakpoints(zoo, half_grid, vacuum_ref):
    # the default statement-4 u grid, read off the keys, is the definition's
    thermal = states.reference("thermal(nbar=-1)", half_grid)
    names = list(zoo)
    for q in (None, vacuum_ref, thermal):
        for a, b in zip(names, names[1:]):
            f, g = zoo[a], zoo[b]
            sides = [r for h in (f, g) for r in _rearrange(h, q)]
            got = _key_breakpoints(sides)
            want = ratio_breakpoints(f, g, q, max_points=256)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_statement4_matches_compare(fock, vacuum_ref, zoo):
    cases = [
        (fock[1], fock[0], vacuum_ref),
        (fock[4], fock[3], vacuum_ref),
        (fock[4], zoo["lossy1"], None),
        (fock[1], fock[2], None),
    ]
    for f, g, q in cases:
        verdict = compare(f, g, q).outcome
        s4 = statement4_check(f, g, q, ratio_breakpoints(f, g, q, max_points=200))
        if verdict is Outcome.MAJORIZES:
            assert s4.forward and not s4.backward
        elif verdict is Outcome.MAJORIZED_BY:
            assert s4.backward and not s4.forward
        elif verdict is Outcome.INCOMPARABLE:
            assert not s4.forward and not s4.backward
        else:
            assert s4.forward and s4.backward


def test_scan_threshold_first_fock(fock, half_grid):
    family = states.thermal_reference_family(half_grid)
    result = scan_threshold(fock[1], fock[0], family, (0.1, 2.0), resolution=0.01)
    assert result.midpoint == pytest.approx(0.64, abs=0.05)
    assert result.verdict_lower is not result.verdict_upper


def test_scan_threshold_no_flip(fock, half_grid):
    family = states.thermal_reference_family(half_grid)
    with pytest.raises(ScanError):
        scan_threshold(fock[1], fock[1], family, (0.1, 2.0), resolution=0.1)


def test_witness_locates_crossing(fock, zoo):
    verdict = compare(fock[4], zoo["lossy1"])
    w = verdict.witness
    assert w.gap < 0 and 0 < w.s < fock[4].grid.total_measure


def _criterion3_cases(fock, zoo, vacuum_ref, half_grid):
    th1 = states.render("thermal(nbar=1)", half_grid)
    qm1 = states.reference("thermal(nbar=-1)", half_grid)
    return (
        [(fock[m], fock[n], None) for m in range(5) for n in range(m + 1, 5)]
        + [(fock[n + 1], fock[n], vacuum_ref) for n in range(5)]
        + [
            (zoo["rho1"], zoo["rho2"], None),
            (fock[4], zoo["lossy1"], None),
            (fock[4], th1, None),
            (fock[4], th1, qm1),
        ]
    )


def test_swapped_arguments_mirror_the_verdict(fock, zoo, vacuum_ref, half_grid):
    mirror = {
        Outcome.MAJORIZES: Outcome.MAJORIZED_BY,
        Outcome.MAJORIZED_BY: Outcome.MAJORIZES,
        Outcome.EQUIVALENT: Outcome.EQUIVALENT,
        Outcome.INCOMPARABLE: Outcome.INCOMPARABLE,
    }
    seen = set()
    for f, g, q in _criterion3_cases(fock, zoo, vacuum_ref, half_grid):
        ab, ba = compare(f, g, q), compare(g, f, q)
        seen.add(ab.outcome)
        assert ba.outcome is mirror[ab.outcome]
        if ab.outcome is Outcome.INCOMPARABLE:
            assert ba.witness == ab.witness_reverse
            assert ba.witness_reverse == ab.witness
        else:
            assert ba.witness == ab.witness and ba.witness_reverse is None
    assert {Outcome.MAJORIZES, Outcome.INCOMPARABLE} <= seen
