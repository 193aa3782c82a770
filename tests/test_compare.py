from __future__ import annotations

import functools
import importlib
import math
import multiprocessing
import os
import pkgutil
import platform
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmaj
from qmaj import grids, rearrange, states
from qmaj.compare import (
    DEFAULT_EPS_CMP,
    DEFAULT_EPS_NORM,
    PRESCAN,
    STRICTNESS,
    MajorizationVerdict,
    Outcome,
    ThresholdResult,
    Witness,
    _is_comparable,
    compare,
    compare_curve_pairs,
    scan_threshold,
    statement4_check,
)
from qmaj.errors import (
    ConfigError,
    GridMismatchError,
    NormalizationError,
    ScanError,
)
from qmaj.grids import DiscreteSpace, GridSpec, ReferenceDistribution, SampledDistribution
from qmaj.monotones import phi_functional
from qmaj.rearrange import LorenzCurve, curves

compare_module = importlib.import_module("qmaj.compare")


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


def test_statement4_refuses_unequal_totals(fock):
    # the same precondition as compare: unequal integrals get no verdict
    twice = SampledDistribution(fock[0].grid, 2.0 * fock[0].values)
    with pytest.raises(NormalizationError):
        compare(fock[1], twice)
    with pytest.raises(NormalizationError):
        statement4_check(fock[1], twice)
    assert statement4_check(fock[1], twice, eps_norm=1.5) == (False, False)


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
    with pytest.raises(ConfigError):
        statement4_check(f, f, eps_norm=eps)


def test_statement4_discrete_hand_example():
    space = DiscreteSpace(2)
    f = SampledDistribution(space, np.array([2.0, -1.0]))
    g = SampledDistribution(space, np.array([1.0, 0.0]))
    result = statement4_check(f, g)
    assert result.forward and not result.backward


def test_statement4_reflexive(fock):
    result = statement4_check(fock[1], fock[1])
    assert result.forward and result.backward


def test_statement4_matches_compare(fock, vacuum_ref, zoo):
    cases = [
        (fock[1], fock[0], vacuum_ref),
        (fock[4], fock[3], vacuum_ref),
        (fock[4], zoo["lossy1"], None),
        (fock[1], fock[2], None),
    ]
    for f, g, q in cases:
        verdict = compare(f, g, q).outcome
        s4 = statement4_check(f, g, q)
        if verdict is Outcome.MAJORIZES:
            assert s4.forward and not s4.backward
        elif verdict is Outcome.MAJORIZED_BY:
            assert s4.backward and not s4.forward
        elif verdict is Outcome.INCOMPARABLE:
            assert not s4.forward and not s4.backward
        else:
            assert s4.forward and s4.backward


def _curve_gap_flags(f, g, q, eps):
    """compare's direction flags, read off its signed curve gaps."""
    (pf, nf), (pg, ng) = curves(f, q), curves(g, q)
    sp, sn = np.union1d(pf.s, pg.s), np.union1d(nf.s, ng.s)
    gaps = np.concatenate([pf(sp) - pg(sp), ng(sn) - nf(sn)])
    return bool(gaps.min() >= -eps), bool(gaps.max() <= eps)


def test_statement4_flags_are_compare_direction_flags(fock, zoo, vacuum_ref, half_grid):
    # the 19 criterion-3 cases, then fock:n against vacuum relative to
    # thermal(nbar) just past each Table 3 threshold, where the forward
    # direction fails by 10 to 30 eps at one crossing of the curves
    th1 = states.render("thermal(nbar=1)", half_grid)
    qm1 = states.reference("thermal(nbar=-1)", half_grid)
    cases = [(fock[m], fock[n], None) for m in range(5) for n in range(m + 1, 5)]
    cases += [(fock[n + 1], fock[n], vacuum_ref) for n in range(5)]
    cases += [
        (zoo["rho1"], zoo["rho2"], None),
        (fock[4], zoo["lossy1"], None),
        (fock[4], th1, None),
        (fock[4], th1, qm1),
    ]
    for n, nbar in zip(range(1, 6), (0.70, 1.30, 1.85, 2.40, 2.95)):
        thermal = states.reference(f"thermal(nbar={nbar})", half_grid)
        cases.append((fock[n], fock[0], thermal))
    flags = []
    for f, g, q in cases:
        flags.append(tuple(statement4_check(f, g, q)))
        assert flags[-1] == _curve_gap_flags(f, g, q, DEFAULT_EPS_CMP)
    # neither direction holds just past a threshold
    assert flags[-5:] == [(False, False)] * 5


def test_part_sums_that_overflow_are_refused():
    # the totals are 0, but each function's positive part sums past the
    # largest float, so its curves would end at inf
    space = DiscreteSpace(4)
    f = SampledDistribution(space, np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308]))
    g = SampledDistribution(space, np.zeros(4))
    for check in (compare, statement4_check):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ConfigError, match="part sums must be finite"):
                check(a, b)


def test_scan_threshold_first_fock(fock, half_grid):
    family = states.thermal_reference_family(half_grid)
    result = scan_threshold(fock[1], fock[0], family, (0.1, 2.0), resolution=0.01)
    assert result.midpoint == pytest.approx(0.64, abs=0.05)
    assert result.verdict_lower is not result.verdict_upper


def _full_sweep_scan(f, g, family, bracket, resolution):
    """``scan_threshold`` as it was when it decided every sweep point first."""
    a, b = bracket
    pts = np.linspace(a, b, PRESCAN)

    def verdict_at(param):
        return compare(f, g, family(param)).outcome

    outcomes = [verdict_at(p) for p in pts]
    flags = [_is_comparable(o) for o in outcomes]
    flip = next((i for i in range(len(pts) - 1) if flags[i] != flags[i + 1]), None)
    if flip is None:
        raise ScanError(f"no comparability sign change in [{a:g}, {b:g}]")
    lo, hi = float(pts[flip]), float(pts[flip + 1])
    out_lo, out_hi = outcomes[flip], outcomes[flip + 1]
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        out_mid = verdict_at(mid)
        if _is_comparable(out_mid) == flags[flip]:
            lo = mid
            out_lo = out_mid
        else:
            hi = mid
            out_hi = out_mid
    return ThresholdResult(lo, hi, resolution, out_lo, out_hi)


def _counting_family(grid):
    family = states.thermal_reference_family(grid)
    calls = []

    def counted(nbar):
        calls.append(nbar)
        return family(nbar)

    return counted, calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scan_threshold_matches_the_full_sweep(fock, half_grid, n):
    # stopping at the first flip finds the same flip and the same bisection
    family = states.thermal_reference_family(half_grid)
    args = (fock[n], fock[0], family, (0.1, 3.5), 0.01)
    assert scan_threshold(*args) == _full_sweep_scan(*args)


def test_scan_threshold_stops_at_the_first_flip(fock, half_grid):
    family, calls = _counting_family(half_grid)
    bracket = (0.1, 3.5)
    result = scan_threshold(fock[1], fock[0], family, bracket, resolution=0.01)
    pts = np.linspace(*bracket, PRESCAN)
    closing = int(np.searchsorted(pts, result.upper))
    assert pts[closing - 1] <= result.lower < result.upper <= pts[closing]
    assert 0 < closing < PRESCAN - 1
    # the sweep runs left to right up to the point that closes the flip,
    # then bisection stays inside the flip
    assert calls[: closing + 1] == list(pts[: closing + 1])
    assert all(pts[closing - 1] < c < pts[closing] for c in calls[closing + 1 :])
    bisections = math.ceil(math.log2((pts[1] - pts[0]) / 0.01))
    assert len(calls) == closing + 1 + bisections


def test_scan_threshold_no_flip(fock, half_grid):
    # without a flip every sweep point is decided before the scan gives up
    family, calls = _counting_family(half_grid)
    with pytest.raises(ScanError):
        scan_threshold(fock[1], fock[1], family, (0.1, 2.0), resolution=0.1)
    assert calls == list(np.linspace(0.1, 2.0, PRESCAN))


def test_scan_threshold_rejects_an_infinite_bracket(fock):
    # checked before the family renders a single reference
    calls = []

    def family(nbar):
        calls.append(nbar)
        return states.reference(states.Thermal(nbar), fock[0].grid)

    for bracket in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (1.0, 1.0)):
        with pytest.raises(ConfigError):
            scan_threshold(fock[1], fock[0], family, bracket)
    assert calls == []


def test_witness_locates_crossing(fock, zoo):
    verdict = compare(fock[4], zoo["lossy1"])
    w = verdict.witness
    assert w.gap < 0 and 0 < w.s < fock[4].grid.total_measure


def test_witness_is_first_on_a_flat_plateau(fock):
    # about 54,000 positive-side breakpoints lie within 8 ulps of the worst
    # gap of fock:1 against fock:2; the witness is the one of smallest s
    verdict = compare(fock[1], fock[2])
    assert verdict.outcome is Outcome.INCOMPARABLE
    w = verdict.witness
    assert w.side == "positive"
    assert w.s == pytest.approx(58.1904, abs=1e-9)


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


def _curve_pair(pos, neg=(0.0, 0.0)):
    """A (positive, negative) curve pair with breakpoints at s = 0, 1, 2, ..."""
    return (
        LorenzCurve(np.arange(len(pos), dtype=float), pos, "positive"),
        LorenzCurve(np.arange(len(neg), dtype=float), neg, "negative"),
    )


EPS = 1e-4
BAND = 0.5 * (1.0 + STRICTNESS) * EPS  # fails by more than eps, at most strict


@pytest.mark.parametrize(
    "eps, f, g, outcome, witness, reverse",
    [
        # rule 1: the forward direction holds and a gap exceeds strictness
        (EPS, ([0, 1.0],), ([0, 0.99],), Outcome.MAJORIZES,
         (1.0, "positive", 1.0 - 0.99), None),
        (EPS, ([0, 1], [0, -0.5]), ([0, 1], [0, -0.49]), Outcome.MAJORIZES,
         (1.0, "negative", -0.49 - -0.5), None),
        # rule 2: the mirror case
        (EPS, ([0, 0.99],), ([0, 1.0],), Outcome.MAJORIZED_BY,
         (1.0, "positive", 0.0 - (0.99 - 1.0)), None),
        # rule 3: either direction holds
        (EPS, ([0, 1.0],), ([0, 1.0 + 0.5 * EPS],), Outcome.EQUIVALENT,
         None, None),
        (EPS, ([0, 1.0 + BAND],), ([0, 1.0],), Outcome.EQUIVALENT, None, None),
        (EPS, ([0, 1.0],), ([0, 1.0 + BAND],), Outcome.EQUIVALENT, None, None),
        # rule 4: both directions fail; each witness is where one fails
        (EPS, ([0, 1.0, 1.0],), ([0, 0.99, 1.01],), Outcome.INCOMPARABLE,
         (2.0, "positive", 1.0 - 1.01), (1.0, "positive", 0.0 - (1.0 - 0.99))),
        # a NaN gap is an extreme of both kinds: both witnesses sit at the
        # first NaN, positive side first, whichever side holds it
        (EPS, ([0, np.nan], [0, np.nan]), ([0, 1.0],), Outcome.INCOMPARABLE,
         (1.0, "positive", np.nan), (1.0, "positive", np.nan)),
        (EPS, ([0, np.nan],), ([0, 1.0],), Outcome.INCOMPARABLE,
         (1.0, "positive", np.nan), (1.0, "positive", np.nan)),
        (EPS, ([0, 1.0],), ([0, np.nan],), Outcome.INCOMPARABLE,
         (1.0, "positive", np.nan), (1.0, "positive", np.nan)),
        # a curve that is not monotone bounds no block by its ends, so the
        # gap between two equal ends is read
        (EPS, ([0, 0.3, 0.0, 0.0],), ([0, 0.0, 0.0, 0.0],), Outcome.MAJORIZES,
         (1.0, "positive", 0.3), None),
        # with eps = 0 every gap is strict and only equal curves are equivalent
        (0.0, ([0, 1.0],), ([0, 1.0],), Outcome.EQUIVALENT, None, None),
        (0.0, ([0, 1.0 + 1e-12],), ([0, 1.0],), Outcome.MAJORIZES,
         (1.0, "positive", (1.0 + 1e-12) - 1.0), None),
        (0.0, ([0, 1.0],), ([0, 1.0 + 1e-12],), Outcome.MAJORIZED_BY,
         (1.0, "positive", 0.0 - (1.0 - (1.0 + 1e-12))), None),
        (0.0, ([0, 1.0, 1.0],), ([0, 0.5, 1.5],), Outcome.INCOMPARABLE,
         (2.0, "positive", 1.0 - 1.5), (1.0, "positive", 0.0 - (1.0 - 0.5))),
    ],
    ids=[
        "majorizes", "majorizes_negative_side", "majorized_by", "equivalent",
        "noise_band_forward", "noise_band_backward", "incomparable",
        "incomparable_nan", "nan_f_positive", "nan_g_positive", "not_monotone",
        "eps0_equivalent", "eps0_majorizes", "eps0_majorized_by",
        "eps0_incomparable",
    ],
)
def test_compare_curve_pairs_rules(eps, f, g, outcome, witness, reverse):
    # the four rules in order, on hand-built curves whose gaps are known
    verdict = compare_curve_pairs(_curve_pair(*f), _curve_pair(*g), eps_cmp=eps)
    assert verdict.outcome is outcome and verdict.tolerance == eps

    def same(got, want):
        if want is None:
            return got is None
        s, side, gap = want
        return (got.s, got.side) == (s, side) and (
            got.gap == gap or (math.isnan(got.gap) and math.isnan(gap))
        )

    assert same(verdict.witness, witness)
    assert same(verdict.witness_reverse, reverse)


def _merged_reference(curves_f, curves_g, eps_cmp: float) -> MajorizationVerdict:
    """compare_curve_pairs read the other way: f's gaps over g at the sorted
    union of both curves' breakpoints of a side, both curves interpolated at
    every point, positive side first; each witness at the first gap of that
    array within 8 ulps of its extreme, or at the extreme when none is (a
    NaN, the first one)."""
    (pos_f, neg_f), (pos_g, neg_g) = curves_f, curves_g
    sp, sn = np.union1d(pos_f.s, pos_g.s), np.union1d(neg_f.s, neg_g.s)
    gaps = np.concatenate([pos_f(sp) - pos_g(sp), neg_g(sn) - neg_f(sn)])
    at = np.concatenate([sp, sn])
    band = 8.0 * np.finfo(float).eps

    def witness(i, sign, reverse=False):
        gap = gaps[i]
        bound = gap - sign * band * max(1, abs(gap))
        near = gaps >= bound if sign > 0 else gaps <= bound
        if near.any():
            i = int(np.argmax(near))
        side = pos_f.side if i < len(sp) else neg_f.side
        return Witness(float(at[i]), side, 0.0 - float(gap) if reverse else float(gap))

    lo, hi = int(np.argmin(gaps)), int(np.argmax(gaps))
    fwd, bwd = gaps[lo] >= -eps_cmp, gaps[hi] <= eps_cmp
    if fwd and gaps[hi] > STRICTNESS * eps_cmp:
        found = Outcome.MAJORIZES, witness(hi, 1), None
    elif bwd and -gaps[lo] > STRICTNESS * eps_cmp:
        found = Outcome.MAJORIZED_BY, witness(lo, -1, reverse=True), None
    elif fwd or bwd:
        found = Outcome.EQUIVALENT, None, None
    else:
        found = Outcome.INCOMPARABLE, witness(lo, -1), witness(hi, 1, reverse=True)
    return MajorizationVerdict(*found, eps_cmp)


ORACLE_EPS = (0.0, 1e-6, 1e-4, 1e-3)


def _assert_reads_as_merged(pairs) -> None:
    for cf, cg in pairs:
        for eps in ORACLE_EPS:
            want = repr(_merged_reference(cf, cg, eps))
            assert repr(compare_curve_pairs(cf, cg, eps_cmp=eps)) == want


@pytest.fixture(scope="module")
def table3_steps(half_grid):
    """fock:n and vacuum against the thermal references at both ends of each
    Table 3 bracket, n = 1..5."""
    family = states.thermal_reference_family(half_grid)
    vac = states.render("vacuum", half_grid)
    steps = []
    for n in range(1, 6):
        fn = states.render(states.Fock(n), half_grid)
        found = scan_threshold(fn, vac, family, (0.1, 3.5), resolution=0.01)
        steps += [(fn, vac, family(nbar)) for nbar in (found.lower, found.upper)]
    return steps


@pytest.mark.parametrize("cpus", [2, 1])
def test_own_breakpoints_read_as_the_merged_ones(
    cpus, fock, zoo, vacuum_ref, half_grid, table3_steps, monkeypatch
):
    # every gap, both extremes and every witness, bitwise, with the worker
    # thread allowed and inline
    monkeypatch.setattr(rearrange, "_cpus", lambda: cpus)
    pairs = []
    for f, g, q in _criterion3_cases(fock, zoo, vacuum_ref, half_grid) + table3_steps:
        cf, cg = curves(f, q), curves(g, q)
        pairs += [(cf, cg), (cg, cf)]
    _assert_reads_as_merged(pairs)


# ties, signed zeros, magnitudes too small to move L past 1 (plateaus and
# flat tails), and reference weights too small to move s (1e-300 and 3e-17
# after a weight of 1 leave zero-width segments)
_VALUES = st.sampled_from(
    [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.25, 1e-17, -1e-17, 1e-300, -1e-300]
)
_WEIGHTS = st.sampled_from([1.0, 0.5, 2.0, 3e-17, 1e-300])


@st.composite
def _discrete_curve_pairs(draw):
    n = draw(st.integers(1, 40))
    values = st.lists(_VALUES | st.floats(-4.0, 4.0), min_size=n, max_size=n)
    space = DiscreteSpace(n)
    q = draw(st.none() | st.lists(_WEIGHTS, min_size=n, max_size=n))
    ref = None if q is None else ReferenceDistribution(space, np.array(q))
    pairs = [list(curves(SampledDistribution(space, np.array(draw(values))), ref)) for _ in "fg"]
    # hand-built: a NaN in L, or a zero-width step whose first breakpoint
    # is not where np.interp reads the curve, and which may make L not
    # monotone
    for pair in pairs:
        k = draw(st.integers(0, 1))
        s, L = pair[k].s, pair[k].L.copy()
        at = draw(st.integers(0, len(s) - 1))
        how = draw(st.sampled_from(["drawn", "drawn", "nan", "step"]))
        if how == "nan":
            L[at] = np.nan
        elif how == "step":
            s, L = np.insert(s, at, s[at]), np.insert(L, at, draw(st.floats(-8.0, 8.0)))
        pair[k] = LorenzCurve(s, L, pair[k].side)
    return tuple(pairs[0]), tuple(pairs[1])


def _plateau(c: LorenzCurve) -> bool:
    # two distinct breakpoints in a row with one L
    return bool(((np.diff(c.s) > 0) & (np.diff(c.L) == 0)).any())


def test_own_breakpoints_read_as_the_merged_ones_on_discrete_curves():
    # every block size from 1 up to past the longest curve, on sound curves
    # and on curves that are not
    seen = dict.fromkeys(["zero_width", "nan", "plateau", "unsound", "one", "past"], False)

    @settings(max_examples=300)
    @given(_discrete_curve_pairs(), st.data())
    def check(pair, data):
        cf, cg = pair
        longest = max(len(c.s) for c in cf + cg)
        size = data.draw(st.integers(1, longest + 2))
        for c in cf + cg:
            seen["zero_width"] |= bool((np.diff(c.s) == 0).any())
            seen["nan"] |= bool(np.isnan(c.L).any())
            seen["plateau"] |= _plateau(c)
            seen["unsound"] |= not c._blocks(size).sound
        seen["one"] |= size == 1
        seen["past"] |= size > longest
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compare_module, "BLOCK", size)
            _assert_reads_as_merged([pair])

    check()
    assert all(seen.values()), seen


def test_plateau_extreme_sits_at_its_first_breakpoint(monkeypatch):
    # both positive curves flat from s = 2 on, 0.1 apart: the largest gap
    # is the plateau's, and blocks where both curves are flat are not read,
    # so the witness is the first of the plateau's breakpoints at every size
    n = 40
    f = np.minimum(np.arange(n) * 0.5, 1.0)
    g = np.minimum(np.arange(n) * 0.5, 0.9)
    cf, cg = _curve_pair(f), _curve_pair(g)
    for size in range(1, n + 2):
        monkeypatch.setattr(compare_module, "BLOCK", size)
        verdict = compare_curve_pairs(cf, cg)
        assert verdict.outcome is Outcome.MAJORIZES
        assert verdict.witness == Witness(2.0, "positive", 1.0 - 0.9)
        _assert_reads_as_merged([(cf, cg), (cg, cf)])


def test_witness_band_reaches_into_blocks(monkeypatch):
    # on curves of size 1e-3 the 8-eps band is thousands of ulps wide: the
    # gaps at s = 5..8 lie 1e-16 below the largest one, within the band, and
    # those at s = 2..4 lie 4e-15 below, outside it, so at small block sizes
    # the first near gap sits inside a block whose first end is not near
    f = np.full(40, 1e-3)
    f[:9] = [0.0, 0.5e-3, *[1e-3 - 4e-15] * 3, *[1e-3 - 1e-16] * 4]
    g = np.minimum(np.arange(40) * 0.5e-3, 0.9e-3)
    cf, cg = _curve_pair(f), _curve_pair(g)
    for size in range(1, 12):
        monkeypatch.setattr(compare_module, "BLOCK", size)
        assert compare_curve_pairs(cf, cg, eps_cmp=0.0).witness.s == 5.0
        _assert_reads_as_merged([(cf, cg), (cg, cf)])


# (own side, other side, own first) of statement 4's four readings, the
# sides numbered f's positive, f's negative, g's positive, g's negative
_KINK_READINGS = ((0, 2, True), (2, 0, False), (1, 3, False), (3, 1, True))


def _full_kink_reading(own, other, own_first):
    """Statement 4 read at every kink of ``own`` (its keys, then 0): own's
    shifted integrals less the other's, each L[k] - t*s[k] with the other's
    k found by searching its -|keys|, f's less g's (g's less f's on the
    negative side).  Returns the kinks and the gaps."""
    t = np.append(own.keys, 0.0)
    k = np.searchsorted(-np.abs(other.keys), -np.abs(t), side="left")
    mine, read = own.L - t * own.s, other.L[k] - t * other.s[k]
    return t, mine - read if own_first else read - mine


def _assert_kinks_read_as_all(f, g, q, eps_norm=DEFAULT_EPS_NORM) -> None:
    """statement4_check and its blocked reading against the full one, at
    every eps of ORACLE_EPS: the same flags, each gap read bitwise the full
    reading's at its kink, and each extreme beyond eps bitwise too."""
    sides_f, sides_g = curves(f, q), curves(g, q)
    four = (*sides_f, *sides_g)
    full = [_full_kink_reading(four[i], four[j], first) for i, j, first in _KINK_READINGS]
    want = np.concatenate([gaps for _, gaps in full])
    for eps in ORACLE_EPS:
        flags = (bool(want.min() >= -eps), bool(want.max() <= eps))
        assert tuple(statement4_check(f, g, q, eps_cmp=eps, eps_norm=eps_norm)) == flags
        readings = compare_module._readings(sides_f, sides_g, eps, kinks=True)
        for r, (at, gaps) in zip(readings, full):
            i = np.searchsorted(-np.abs(at), -np.abs(np.concatenate(r.at)))
            assert at[i].tobytes() == np.concatenate(r.at).tobytes()
            assert gaps[i].tobytes() == np.concatenate(r.gaps).tobytes()
        got = np.concatenate([x for r in readings for x in r.gaps])
        if not flags[0]:
            assert got.min().tobytes() == want.min().tobytes()
        if not flags[1]:
            assert got.max().tobytes() == want.max().tobytes()


def test_kinks_read_as_all_of_them(fock, zoo, vacuum_ref, half_grid, table3_steps):
    # the criterion-3 cases both ways round and the Table 3 steps, where a
    # direction fails by 10 to 30 eps
    for f, g, q in _criterion3_cases(fock, zoo, vacuum_ref, half_grid) + table3_steps:
        _assert_kinks_read_as_all(f, g, q)
        _assert_kinks_read_as_all(g, f, q)


@st.composite
def _discrete_function_pairs(draw):
    n = draw(st.integers(1, 40))
    space = DiscreteSpace(n)
    q = draw(st.none() | st.lists(_WEIGHTS, min_size=n, max_size=n))
    ref = None if q is None else ReferenceDistribution(space, np.array(q))
    # with no reference, values whose parts pass 2**1000 too, which makes a
    # side unsound, so that every block of it is read (against a tiny
    # weight their keys would overflow)
    kinds = _VALUES | st.floats(-4.0, 4.0)
    if q is None:
        kinds |= st.sampled_from([1e301, -1e301])
    values = st.lists(kinds, min_size=n, max_size=n)
    f, g = (SampledDistribution(space, np.array(draw(values))) for _ in "fg")
    return f, g, ref


def test_kinks_read_as_all_of_them_on_discrete_functions():
    # ties, signed zeros, 1e-300 weights (zero-width runs) and values of
    # 1e-17 and 1e-300 (blocks where both sides are flat), at every block
    # size from 1 up to past the longest side, on sound sides and on sides
    # that are not
    kinds = ["tie", "signed_zero", "zero_width", "flat", "unsound", "one", "past"]
    seen = dict.fromkeys(kinds, False)

    @settings(max_examples=300)
    @given(_discrete_function_pairs(), st.data())
    def check(pair, data):
        f, g, q = pair
        four = (*curves(f, q), *curves(g, q))
        longest = max(len(c.s) for c in four)
        size = data.draw(st.integers(1, longest + 2))
        for h in (f, g):
            nonzero = h.values[h.values != 0]
            seen["tie"] |= len(np.unique(nonzero)) < len(nonzero)
            seen["signed_zero"] |= bool(np.signbit(h.values[h.values == 0]).any())
        cut = [c._blocks(size, kinks=True) for c in four]
        for c, blocks in zip(four, cut):
            seen["zero_width"] |= bool((np.diff(c.s) == 0).any())
            seen["unsound"] |= not blocks.sound
        for i, j, first in _KINK_READINGS:
            seen["flat"] |= bool(compare_module._Reading(cut[i], four[j], cut[j], first).done.any())
        seen["one"] |= size == 1
        seen["past"] |= size > longest
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(compare_module, "BLOCK", size)
            # the totals differ: eps_norm lets every pair through
            _assert_kinks_read_as_all(f, g, q, eps_norm=1e305)

    check()
    assert all(seen.values()), seen


def test_flat_kinks_stand_in_only_where_t_s_cannot_move_them(monkeypatch):
    # keys of 1e-16 add too little mass to move L past 6.25 or 1.25, but t*s
    # at them moves the shifted integrals, so those blocks must be read: at
    # block size 3 the largest gap, 5.0 at f's key 2e-17, sits inside such a
    # block, between two gaps an ulp below it
    space = DiscreteSpace(8)
    f = SampledDistribution(space, np.array([2.0, 2.0, 1.0, 1.0, 0.25, 1.5e-16, 1.5e-16, 2e-17]))
    g = SampledDistribution(space, np.array([1.0, 0.25, 3e-16, 3e-16, 3e-16, 7e-17, 0.0, 0.0]))
    for size in range(1, 11):
        monkeypatch.setattr(compare_module, "BLOCK", size)
        _assert_kinks_read_as_all(f, g, None, eps_norm=10.0)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the malloc policy is glibc's",
)
def test_repeated_verdicts_take_no_page_faults():
    # importing qmaj keeps freed heap pages mapped, so a verdict reuses the
    # pages its predecessor freed instead of faulting them back in: a Table 3
    # scan step and a criterion-7 compare fault about 1,000 and 1,500 pages
    # each under glibc's default policy.  Each verdict has a reference of its
    # own, so it builds its sides rather than reading kept ones
    src = str(Path(states.__file__).resolve().parents[1])
    code = (
        "import resource, qmaj\n"
        "from qmaj import states\n"
        "from qmaj.grids import default_grid\n"
        "def faults():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "grid = default_grid()\n"
        "family = states.thermal_reference_family(grid)\n"
        "fock, vac = qmaj.render('fock:3', grid), qmaj.render('vacuum', grid)\n"
        "for nbar in (1.0, 1.1):\n"
        "    qmaj.compare(fock, vac, family(nbar))\n"
        "start = faults()\n"
        "for k in range(10):\n"
        "    qmaj.compare(fock, vac, family(1.2 + 0.1 * k))\n"
        "print(faults() - start)\n"
        "grid = default_grid(modes=2)\n"
        "pair = qmaj.render('tensor(fock:2, fock:2)', grid)\n"
        "cubic = qmaj.render('tensor(cubic(g=0.02, s=0.1), vacuum)', grid)\n"
        "def ref():\n"
        "    return qmaj.reference('tensor(vacuum, vacuum)', grid)\n"
        "qmaj.compare(pair, cubic, ref(), eps_norm=2e-2)\n"
        "start = faults()\n"
        "for _ in range(3):\n"
        "    qmaj.compare(pair, cubic, ref(), eps_norm=2e-2)\n"
        "print(faults() - start)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    scan, two_mode = map(int, proc.stdout.split())
    assert scan < 1000 and two_mode < 200, (scan, two_mode)


def _record_public_calls(monkeypatch, calls: list) -> None:
    """Wrap every public function and method of the qmaj modules to record
    (name, thread) per call, every copy bound by ``from .x import y`` too."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((fn.__qualname__, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapper

    mods = [importlib.import_module(f"qmaj.{m.name}") for m in pkgutil.iter_modules(qmaj.__path__)]
    wrappers = {}
    for mod in mods:
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                wrappers[obj] = wrap(obj)
            elif isinstance(obj, type):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                        monkeypatch.setattr(obj, meth, wrap(fn))
    for owner in [qmaj, *mods]:
        for name, obj in list(vars(owner).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                monkeypatch.setattr(owner, name, wrappers[obj])


def test_pairs_call_public_functions_on_the_calling_thread_only(
    two_cpus, fock, zoo, vacuum_ref, fresh, monkeypatch
):
    # a tracer that wraps the public functions keeps one span stack, so the
    # worker that builds g's rearrangement must call none of them
    two = GridSpec(2, 5.0, 16)
    tensor = [states.render(s, two) for s in ("tensor(fock:1, vacuum)", "tensor(vacuum, fock:1)")]
    cases = [
        (fock[1], fock[2], None),  # octant
        (fock[3], fock[2], vacuum_ref),
        (zoo["rho1"], zoo["rho2"], None),  # values
        (zoo["rho1"], zoo["rho2"], vacuum_ref),
        (*tensor, None),  # product
        (*tensor, states.reference("tensor(vacuum, vacuum)", two)),
    ]
    pairs = [(curves(f, q), curves(g, q)) for f, g, q in cases]
    # each call gets operands of its own, for which no sides are kept, so
    # every call builds both
    operands = [[(fresh(f), fresh(g)) for _ in range(3)] for f, g, _ in cases]
    calls, splits, reads = [], [], []
    split, interp = rearrange._split, np.interp

    def record_split(*args):
        splits.append(threading.get_ident())
        return split(*args)

    def record_interp(*args):
        reads.append(threading.get_ident())
        return interp(*args)

    monkeypatch.setattr(rearrange, "_split", record_split)
    _record_public_calls(monkeypatch, calls)
    for (_, _, q), (a, b, c) in zip(cases, operands):
        compare(*a, q)
        statement4_check(*b, q)
        if q is None:
            phi_functional(*c)
    here = threading.get_ident()
    assert calls and all(thread == here for _, thread in calls)
    # compare still reads both curve pairs through the public curves
    assert sum(name == "curves" for name, _ in calls) == 2 * len(cases)
    # and the worker did build: every rearrangement ends in a _split
    assert {thread != here for thread in splits} == {True, False}
    # a direct dominance check reads both pairs here: the block ends of
    # each of the four curves, then the blocks that can decide the verdict
    calls.clear()
    monkeypatch.setattr(np, "interp", record_interp)
    for cf, cg in pairs:
        reads.clear()
        qmaj.compare_curve_pairs(cf, cg)  # the wrapped copy
        assert len(reads) >= 4 and set(reads) == {here}
    assert [name for name, _ in calls] == ["compare_curve_pairs"] * len(pairs)
    assert all(thread == here for _, thread in calls)


def test_dominance_check_memory(two_cpus, fock, zoo, half_grid):
    # a first check cuts the four curves into blocks and reads only the
    # blocks that can decide it, so its peak stays within 3 times its four
    # curves
    q = states.reference("thermal(nbar=2.9)", half_grid)
    cases = [
        (fock[5], fock[0], q),
        (fock[1], fock[2], None),
        (zoo["rho1"], zoo["rho2"], None),
    ]
    for f, g, q in cases:
        cf, cg = curves(f, q), curves(g, q)
        size = sum(c.s.nbytes + c.L.nbytes for c in cf + cg)
        tracemalloc.start()
        try:
            compare_curve_pairs(cf, cg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * size, (peak / size, size)


def _forked(target, timeout: float = 60):
    """target() run in a child forked by multiprocessing, its result's repr."""
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=lambda: out.put(repr(target())))
    child.start()
    try:
        return out.get(timeout=timeout)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)
def test_forked_child_compares_with_its_own_worker(
    two_cpus, fock, zoo, half_grid, vacuum_ref, fresh
):
    # the child has no copy of the parent's worker thread, so a pair whose
    # build waited on it would never end; the operands are new, so neither
    # the child nor the parent holds sides kept for them
    f, g = fresh(fock[3]), fresh(fock[2])
    got = _forked(lambda: compare(f, g, vacuum_ref))
    assert got == repr(compare(f, g, vacuum_ref))
    # nor of a thread that held the lock of a lazy ``values`` at the fork:
    # the child builds the cells of a fresh reference under a lock of its own
    q = states.reference("thermal(nbar=0.37)", half_grid)
    assert "values" not in vars(q)
    held, release = threading.Event(), threading.Event()

    def hold():
        with grids._BUILDING_VALUES:
            held.set()
            release.wait()

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        held.wait()
        got = _forked(lambda: compare(zoo["rho1"], zoo["rho2"], q), timeout=30)
    finally:
        release.set()
        holder.join()
    assert got == repr(compare(zoo["rho1"], zoo["rho2"], q))
