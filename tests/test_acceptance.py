"""Acceptance gate: one test per criterion, each printing its own verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines alongside the pytest report.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qmaj import channels, states
from qmaj.compare import Outcome, compare, scan_threshold
from qmaj.discrete import (
    StochasticMatrix,
    apply_matrix,
    vec_compare,
    vec_statement4,
)
from qmaj.grids import default_grid, truncation_report
from qmaj.monotones import (
    extreme_values,
    lp_norm,
    negative_volume,
    phi_functional,
    purity,
    renyi_divergence,
)
from qmaj.rearrange import (
    codistribution_function,
    distribution_function,
    lorenz_curves,
    piecewise_minus_integral,
    piecewise_plus_integral,
    relative_lorenz_curves,
)

# numpy 2.0 renamed np.trapz to np.trapezoid; pyproject.toml allows numpy 1.23
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _slopes(curve) -> np.ndarray:
    """Slope of each segment of a curve: the rearrangement values in order."""
    return np.diff(curve.L) / np.diff(curve.s)


def _announce(num: int, label: str):
    print(f"\n[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_table2_monotones():
    start = time.time()
    grid = default_grid(hbar="one")
    w4 = states.render("fock:4", grid)
    lossy = states.render("lossy(eta=0.7, fock:1)", grid)

    assert negative_volume(w4) == pytest.approx(0.596, abs=5e-3)
    assert negative_volume(lossy) == pytest.approx(0.052, abs=5e-3)
    assert purity(w4) == pytest.approx(1.000, abs=5e-3)
    assert purity(lossy) == pytest.approx(0.580, abs=5e-3)
    mx, mn = extreme_values(w4)
    assert mx == pytest.approx(0.318, abs=5e-3)
    assert mn == pytest.approx(0.129, abs=5e-3)
    mx, mn = extreme_values(lossy)
    assert mx == pytest.approx(0.123, abs=5e-3)
    assert mn == pytest.approx(0.127, abs=5e-3)

    elapsed = time.time() - start
    assert elapsed < 30.0
    _announce(1, f"Table 2 monotones, {elapsed:.1f}s")


def test_criterion_2_table3_thermal_thresholds():
    start = time.time()
    grid = default_grid()
    family = states.thermal_reference_family(grid)
    vac = states.render("vacuum", grid)
    expected = {1: 0.64, 2: 1.23, 3: 1.80, 4: 2.36, 5: 2.90}
    for n, target in expected.items():
        wn = states.render(states.Fock(n), grid)
        result = scan_threshold(wn, vac, family, (0.1, 3.5), resolution=0.01)
        assert result.midpoint == pytest.approx(target, abs=0.05), f"n={n}"
    elapsed = time.time() - start
    assert elapsed < 600.0
    _announce(2, f"Table 3 thresholds, {elapsed:.1f}s")


def test_criterion_3_figure_verdicts():
    grid = default_grid()
    fock = {n: states.render(states.Fock(n), grid) for n in range(6)}
    vac_ref = states.reference("vacuum", grid)

    # pairwise incomparability of distinct Fock states, regular preorder
    for m in range(5):
        for n in range(m + 1, 5):
            assert compare(fock[m], fock[n]).outcome is Outcome.INCOMPARABLE

    # the full hierarchy relative to vacuum
    for n in range(5):
        assert compare(fock[n + 1], fock[n], vac_ref).outcome is Outcome.MAJORIZES

    # the two mixtures whose negative curves cross
    rho1 = states.render("mix(0.75:cat(alpha=2), 0.25:fock:7)", grid)
    rho2 = states.render("mix(0.5:on(a=2,n=3), 0.5:fock:1)", grid)
    assert compare(rho1, rho2).outcome is Outcome.INCOMPARABLE

    # Fock 4 against the lossy Fock state
    lossy = states.render("lossy(eta=0.7, fock:1)", grid)
    assert compare(fock[4], lossy).outcome is Outcome.INCOMPARABLE

    # Fock 4 against a warm thermal state: comparable in the regular
    # preorder, incomparable relative to nbar=-1, comparable again at -20.
    # The thermal target is Wigner positive so the positive curves decide.
    th1 = states.render("thermal(nbar=1)", grid)
    assert (th1.values >= 0).all()
    assert compare(fock[4], th1).outcome is Outcome.MAJORIZES
    qm1 = states.reference("thermal(nbar=-1)", grid)
    qm20 = states.reference("thermal(nbar=-20)", grid)
    assert not qm1.integrable and not qm20.integrable
    assert compare(fock[4], th1, qm1).outcome is Outcome.INCOMPARABLE
    assert compare(fock[4], th1, qm20).outcome is Outcome.MAJORIZES

    _announce(3, "figure verdicts 2(a), 2(b), 3, 4, 8")


def test_criterion_4_analytic_oracle_equivalence():
    grid = default_grid()
    q0 = states.reference("vacuum", grid, rep="husimi")
    for n in range(1, 6):
        qn = states.render(states.Fock(n), grid, rep="husimi")
        pos, _ = relative_lorenz_curves(qn, q0)
        s = np.linspace(1e-6, 1.0, 4000)
        closed = s * (
            1.0
            + sum((-np.log(s)) ** k / math.factorial(k) for k in range(1, n + 1))
        )
        assert np.abs(pos(s) - closed).max() < 1e-3, f"husimi n={n}"

    vac = states.render("vacuum", grid)
    pos, neg = lorenz_curves(vac)
    s = np.linspace(0.0, grid.total_measure, 4000)
    assert np.abs(pos(s) - (1.0 - np.exp(-2.0 * s / math.pi))).max() < 1e-3
    assert abs(neg.final) < 1e-15
    _announce(4, "closed-form Lorenz curves")


def _random_fraction_vector(rng, length):
    return tuple(
        Fraction(rng.randint(-6, 9), rng.randint(1, 6)) for _ in range(length)
    )


def _matched_pair(rng):
    k = rng.randint(2, 6)
    f = _random_fraction_vector(rng, k)
    g = list(_random_fraction_vector(rng, k))
    g[-1] = sum(f) - sum(g[:-1])
    return f, tuple(g)


def _random_doubly_stochastic(rng, k):
    weights = [Fraction(rng.randint(1, 5)) for _ in range(3)]
    total = sum(weights)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for w in weights:
        perm = list(range(k))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] += Fraction(w, total)
    return StochasticMatrix(tuple(tuple(r) for r in rows))


def _random_q_stochastic(rng, q):
    k = len(q)
    rows = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]

    def mult(a, b):
        return [
            [sum(a[i][m] * b[m][j] for m in range(k)) for j in range(k)]
            for i in range(k)
        ]

    for _ in range(3):
        i, j = rng.sample(range(k), 2)
        a = Fraction(rng.randint(0, 4), 4)
        b = a * q[i] / q[j]
        if b > 1:
            continue
        move = [[Fraction(int(r == c)) for c in range(k)] for r in range(k)]
        move[i][i] = 1 - a
        move[j][i] = a
        move[j][j] = 1 - b
        move[i][j] = b
        rows = mult(move, rows)
    return StochasticMatrix(tuple(tuple(r) for r in rows))


def _clustered(a, b, points):
    x = np.linspace(0.0, 1.0, points)
    return a + (b - a) * x**3


def test_criterion_5_property_suites(zoo, fock, vacuum_ref, half_grid):
    # Chong identities across the zoo, 20-point u grid, 1e-3
    for name, f in zoo.items():
        top = float(f.values.max())
        bot = float(f.values.min())
        for u in np.linspace(0.0, top, 20):
            ts = _clustered(u, top * 1.0001, 1000)
            rhs = trapezoid([distribution_function(f, t) for t in ts], ts)
            assert abs(piecewise_plus_integral(f, u) - rhs) < 1e-3, name
            if bot < -u:
                ts = -_clustered(u, -bot * 1.0001, 1000)
                rhs = trapezoid([codistribution_function(f, t) for t in ts], ts)
                assert abs(piecewise_minus_integral(f, u) - rhs) < 1e-3, name

    # statement 1 <-> statement 4, exact arithmetic, 1000 random instances
    rng = random.Random(101)
    for trial in range(1000):
        if trial % 2:
            f, g = _matched_pair(rng)
            q = None
        else:
            f, g = _matched_pair(rng)
            q = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in f)
        verdict = vec_compare(f, g, q).outcome
        fwd, bwd = vec_statement4(f, g, q)
        assert fwd == (verdict in (Outcome.MAJORIZES, Outcome.EQUIVALENT))
        assert bwd == (verdict in (Outcome.MAJORIZED_BY, Outcome.EQUIVALENT))

    # SDS / SqS application never reverses a verdict, 1000 trials
    rng = random.Random(202)
    for trial in range(1000):
        k = 5
        f = _random_fraction_vector(rng, k)
        if trial % 2:
            s = _random_doubly_stochastic(rng, k)
            assert s.is_sds()
            out = apply_matrix(s, f)
            assert vec_compare(f, out).outcome is not Outcome.MAJORIZED_BY
        else:
            q = tuple(Fraction(rng.randint(1, 6)) for _ in range(k))
            s = _random_q_stochastic(rng, q)
            assert s.is_sqs(q)
            out = apply_matrix(s, f)
            assert vec_compare(f, out, q).outcome is not Outcome.MAJORIZED_BY

    # Cauchy-Schwarz for the rearrangement inner product
    names = list(zoo)
    for i, a in enumerate(names):
        for b in names[i:]:
            f, g = zoo[a], zoo[b]
            assert phi_functional(f, g) <= lp_norm(f, 2.0) * lp_norm(g, 2.0) + 1e-6

    # Lorenz concavity/convexity, exact up to cumulative-sum rounding
    eps = np.finfo(float).eps
    for f in zoo.values():
        pos, neg = lorenz_curves(f)
        if len(pos.s) > 2:
            tol = 64 * eps * pos.final / np.diff(pos.s).min()
            assert (np.diff(_slopes(pos)) <= tol).all()
        if len(neg.s) > 2:
            tol = 64 * eps * abs(neg.final) / np.diff(neg.s).min()
            assert (np.diff(_slopes(neg)) >= -tol).all()

    # Schur-monotone ordering against every Majorizes verdict collected here:
    # regular monotones on regular verdicts, divergences and the negative
    # volume on relative verdicts
    th1 = states.render("thermal(nbar=1)", half_grid)
    assert compare(fock[4], th1).outcome is Outcome.MAJORIZES
    assert negative_volume(fock[4]) >= negative_volume(th1) - 1e-4
    assert lp_norm(fock[4], 2.0) >= lp_norm(th1, 2.0) - 1e-4
    assert extreme_values(fock[4])[0] >= extreme_values(th1)[0] - 1e-4
    assert extreme_values(fock[4])[1] >= extreme_values(th1)[1] - 1e-4
    for n in range(5):
        assert compare(fock[n + 1], fock[n], vacuum_ref).outcome is Outcome.MAJORIZES
        assert negative_volume(fock[n + 1]) >= negative_volume(fock[n]) - 1e-4
        assert (
            renyi_divergence(fock[n + 1], vacuum_ref, 2.0)
            >= renyi_divergence(fock[n], vacuum_ref, 2.0) - 1e-3
        )

    _announce(5, "Chong, statement equivalence, stochastic trials, Phi, ordering")


def test_criterion_6_channel_consistency(half_grid):
    plc = channels.pure_loss_channel(0.7)
    for n in range(6):
        wn = states.render(states.Fock(n), half_grid)
        through_kernel = channels.apply_gaussian(plc, wn)
        closed_form = states.render(states.Lossy(0.7, states.Fock(n)), half_grid)
        sup = np.abs(through_kernel.values - closed_form.values).max()
        assert sup <= 1e-3, f"n={n}: sup={sup:.2e}"

    label, value = channels.classify_dilation(channels.beamsplitter_dilation(0.7))
    assert label is channels.DilationClass.NOT_SDS
    assert value == pytest.approx(0.7, abs=1e-9)
    label, value = channels.classify_dilation(channels.two_mode_squeezer_dilation(0.9))
    assert label is channels.DilationClass.SDS
    assert value == pytest.approx(math.cosh(0.9) ** 2, abs=1e-9)

    _announce(6, "loss-channel agreement and dilation classes")


def test_criterion_7_two_mode_qualitative_run():
    grid = default_grid(modes=2)
    assert grid.points_per_axis == 64

    pair = states.render("tensor(fock:2, fock:2)", grid)
    cubic = states.render("tensor(cubic(g=0.02, s=0.1), vacuum)", grid)
    q = states.reference("tensor(vacuum, vacuum)", grid)

    for name, f in (("fock pair", pair), ("cubic x vacuum", cubic)):
        rep = truncation_report(f)
        print(f"[acceptance] two-mode {name}: {rep}")
        assert rep.normalization_defect < 1e-2, name
        pos, neg = relative_lorenz_curves(f, q)
        pos, neg = pos.decimated(), neg.decimated()
        assert (np.diff(pos.L) >= -1e-12).all()
        assert (np.diff(neg.L) <= 1e-12).all()
        assert pos.decimation_error < 1e-6

    verdict = compare(pair, cubic, q, eps_norm=2e-2)
    print(f"[acceptance] two-mode verdict (qualitative): {verdict.outcome.value}")

    _announce(7, "two-mode coarse run")
