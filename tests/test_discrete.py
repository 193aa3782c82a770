from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaj.compare import (
    STRICTNESS,
    Outcome,
    Statement4Result,
    Witness,
    compare,
    statement4_check,
)
from qmaj.discrete import (
    QuasiVector,
    StochasticMatrix,
    _as_entries,
    _gaps,
    apply_matrix,
    vec_compare,
    vec_lorenz,
    vec_statement4,
)
from qmaj.errors import ConfigError
from qmaj.grids import DiscreteSpace, ReferenceDistribution, SampledDistribution


def negative_volume_vec(f):
    """The mass of the negative part: half of sum |v| - sum v."""
    entries = _as_entries(f)
    return (sum(abs(v) for v in entries) - sum(entries)) / 2


def gibbs(beta: float, energies) -> tuple[float, ...]:
    """The normalized Gibbs weights exp(-beta E) / Z."""
    weights = [math.exp(-beta * e) for e in energies]
    z = sum(weights)
    return tuple(w / z for w in weights)


def test_vec_lorenz_simple():
    pos, neg = vec_lorenz(QuasiVector((1, 0)))
    assert pos == [(0, 0), (1, 1), (2, 1)]
    assert neg == [(0, 0), (2, 0)]


def test_vec_lorenz_signed():
    pos, neg = vec_lorenz(QuasiVector((2, -1)))
    assert pos == [(0, 0), (1, 2), (2, 2)]
    assert neg == [(0, 0), (1, -1), (2, -1)]


def test_signed_pair_majorizes():
    verdict = vec_compare((2, -1), (1, 0))
    assert verdict.outcome is Outcome.MAJORIZES
    assert verdict.witness == Witness(1.0, "positive", 1.0)
    assert verdict.witness_reverse is None
    result = vec_statement4((2, -1), (1, 0))
    assert isinstance(result, Statement4Result)
    assert (result.forward, result.backward) == (True, False)


def test_two_outcome_classic():
    verdict = vec_compare((Fraction(1, 2), Fraction(1, 2)), (1, 0))
    assert verdict.outcome is Outcome.MAJORIZED_BY


def test_peaked_vector_majorizes_probabilities():
    assert vec_compare((1, 0, 0), (Fraction(1, 3),) * 3).outcome is Outcome.MAJORIZES


def test_float_example():
    verdict = vec_compare((1.2, -0.2), (0.9, 0.1))
    assert verdict.outcome is Outcome.MAJORIZES
    assert verdict.witness == Witness(1.0, "positive", 0.29999999999999993)


def test_verdict_reads_exact_gaps_not_their_floats():
    # the only nonzero gap, d, rounds to 0.0: a rule that read the float
    # witnesses would say equivalent
    d = Fraction(1, 10**400)
    verdict = vec_compare((1, 0), (1 - d, d))
    assert verdict.outcome is Outcome.MAJORIZES
    assert verdict.witness == Witness(1.0, "positive", 0.0)


def test_sum_mismatch():
    with pytest.raises(ConfigError, match="sum mismatch"):
        vec_compare((1, 0), (2, 0))
    with pytest.raises(ConfigError, match="sum mismatch"):
        vec_statement4((1, 0), (2, 0))
    with pytest.raises(ConfigError, match="sum mismatch"):
        vec_statement4((1.0, 0.0), (0.0, 1.5), (1.0, 1.0))
    # both totals overflow to inf, so their difference is NaN, although g
    # carries 1e307 more mass
    for check in (vec_compare, vec_statement4):
        with pytest.raises(ConfigError, match="sum mismatch"):
            check((1.7e308, 1.7e308), (1.7e308, 1.7e308, 1e307))


def test_exact_entries_compare_exactly():
    # the float slack of 1e-12 holds only where an entry is a float
    off = 1 + Fraction(1, 10**13)
    for check in (vec_compare, vec_statement4):
        with pytest.raises(ConfigError, match="sum mismatch"):
            check((1, 0), (off, 0))
    floats = vec_compare((1.0, 0.0), (1.0 + 1e-13, 0.0))
    assert floats.outcome is Outcome.MAJORIZED_BY
    assert vec_statement4((1.0, 0.0), (1.0 + 1e-13, 0.0)) == (False, True)
    with pytest.raises(ConfigError, match="sums to"):
        StochasticMatrix(((off,), (0,)))
    StochasticMatrix(((1.0 + 1e-13,), (0.0,)))
    # two columns of one half put a row sum of 1 + 1e-13 in reach
    wide = StochasticMatrix(
        ((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**13)),
         (Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**13)))
    )
    assert not wide.is_sds()
    assert not wide.is_sqs((1, 1))
    loose = StochasticMatrix(((0.5, 0.5 + 1e-13), (0.5, 0.5 - 1e-13)))
    assert loose.is_sds()
    assert loose.is_sqs((1.0, 1.0))


@pytest.mark.parametrize("q", [(1, -1), (1, 0)], ids=["negative", "zero"])
def test_reference_checked_like_compare(q):
    # vec_statement4 refuses a reference that vec_compare refuses
    with pytest.raises(ConfigError, match="strictly positive"):
        vec_compare((1, 0), (0, 1), q)
    with pytest.raises(ConfigError, match="strictly positive"):
        vec_statement4((1, 0), (0, 1), q)


def test_statement4_pads_like_compare():
    assert vec_statement4((1, 0, 0, 0), (1, 0)) == (True, True)
    with pytest.raises(ConfigError, match="shorter"):
        vec_statement4((1, 0, 0), (1, 0), (1, 1))


@pytest.mark.parametrize(
    "f, g, q",
    [
        ((float("nan"), 1.0), (1.0, 0.0), None),
        ((1e999, -1e999), (1.0, 0.0), None),
        ((1.0, 0.0), (float("-inf"), 1.0), None),
        ((1.0, 0.0), (0.0, 1.0), (1.0, float("nan"))),
        ((1.0, 0.0), (0.0, 1.0), (1.0, float("inf"))),
        ((1.7e308, -1.7e308, 1.7e308, -1.7e308), (0.0, 0.0, 0.0, 0.0), None),
    ],
    ids=["f-nan", "f-inf", "g-inf", "q-nan", "q-inf", "f-part-sums"],
)
def test_non_finite_entries_rejected(f, g, q):
    # NaN compares false and an infinite total has no sum to preserve, so
    # neither may reach a verdict; nor may a finite total whose positive and
    # negative parts each sum past the largest float
    with pytest.raises(ConfigError, match="finite"):
        vec_compare(f, g, q)
    with pytest.raises(ConfigError, match="finite"):
        vec_statement4(f, g, q)
    # exact entries of any size are finite
    big = Fraction(10**400)
    assert negative_volume_vec((big, -big, 1)) == big


def test_length_padding():
    assert vec_compare((1, 0, 0, 0), (1, 0)).outcome is Outcome.EQUIVALENT


def test_exact_witness_at_first_tied_breakpoint():
    # f's gap over g is -1/3 at four breakpoints: s = 2 and 3 on the positive
    # side, s = 1 and 3 on the negative side; the witness is the first of
    # them, found by exact comparison
    f, g = (0, 2, 0), (1, Fraction(4, 3), Fraction(-1, 3))
    verdict = vec_compare(f, g)
    assert verdict.outcome is Outcome.INCOMPARABLE
    assert verdict.witness == Witness(2.0, "positive", -1 / 3)
    assert verdict.witness_reverse == Witness(1.0, "positive", -2 / 3)
    mirror = vec_compare(g, f)
    assert (mirror.witness, mirror.witness_reverse) == (
        verdict.witness_reverse, verdict.witness
    )
    # float gaps round the tied ones apart; the 8-eps band puts the
    # witnesses where the exact ones are
    floats = vec_compare((0.0, 2.0, 0.0), (1.0, 4 / 3, -1 / 3))
    assert floats.outcome is Outcome.INCOMPARABLE
    assert floats.witness == Witness(2.0, "positive", -0.3333333333333333)
    assert floats.witness_reverse == Witness(1.0, "positive", -0.6666666666666667)


_FRACTIONS = st.builds(Fraction, st.integers(-6, 9), st.integers(1, 6))
_WEIGHTS = st.builds(Fraction, st.integers(1, 8), st.integers(1, 4))


@st.composite
def _equal_total_instances(draw):
    """Fraction vectors f, g of one length 2-6 and equal totals, and q or None."""
    k = draw(st.integers(2, 6))
    f = draw(st.lists(_FRACTIONS, min_size=k, max_size=k))
    g = draw(st.lists(_FRACTIONS, min_size=k - 1, max_size=k - 1))
    g.append(sum(f) - sum(g))
    q = draw(st.none() | st.lists(_WEIGHTS, min_size=k, max_size=k))
    return tuple(f), tuple(g), q


def _floats(f, g, q):
    """f and g as float functions on a DiscreteSpace, and q as a reference or None."""
    space = DiscreteSpace(len(f))
    ref = None if q is None else ReferenceDistribution(space, np.array(q, float))
    return (
        SampledDistribution(space, np.array(f, float)),
        SampledDistribution(space, np.array(g, float)),
        ref,
    )


def test_float_compare_agrees_with_exact_oracle():
    # float compare on a DiscreteSpace against exact vec_compare: the same
    # outcome, and witnesses at the same place with the same gap.  A draw is
    # checked when each exact extreme gap is 0 or clear of the noise band,
    # where rounding cannot move the verdict; the others are counted
    eps = 1e-9
    checked, skipped = [], []

    @settings(max_examples=150)
    @given(_equal_total_instances())
    def check(instance):
        f, g, q = instance
        _, gaps = _gaps(vec_lorenz(f, q), vec_lorenz(g, q))
        extremes = min(gaps), max(gaps)
        if not all(x == 0 or abs(x) > 2 * STRICTNESS * eps for x in extremes):
            skipped.append(instance)
            return
        floats = compare(*_floats(f, g, q), eps_cmp=eps)
        exact = vec_compare(f, g, q)
        assert floats.outcome is exact.outcome
        for a, b in ((floats.witness, exact.witness),
                     (floats.witness_reverse, exact.witness_reverse)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.side == b.side
                assert a.s == pytest.approx(b.s, rel=0, abs=1e-12)
                assert a.gap == pytest.approx(b.gap, rel=0, abs=1e-12)
        checked.append(instance)

    check()
    assert len(skipped) <= len(checked) // 10, f"{len(skipped)} draws skipped"


def test_float_statement4_agrees_with_exact_oracle():
    # float statement4_check on a DiscreteSpace against exact vec_statement4:
    # the same flags.  The float check lets a direction fail by eps, so a
    # draw is checked when each direction's exact worst gap is 0 or farther
    # than eps from 0; the others are counted
    eps = 1e-9
    checked, skipped = [], []

    @settings(max_examples=150)
    @given(_equal_total_instances())
    def check(instance):
        f, g, q = instance
        _, gaps = _gaps(vec_lorenz(f, q), vec_lorenz(g, q))
        if any(0 < abs(x) <= eps for x in (min(gaps), max(gaps))):
            skipped.append(instance)
            return
        assert statement4_check(*_floats(f, g, q), eps_cmp=eps) == vec_statement4(f, g, q)
        checked.append(instance)

    check()
    assert len(skipped) <= len(checked) // 10, f"{len(skipped)} draws skipped"


def test_extreme_point_facts():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(2, 6)
        cuts = sorted(rng.random() for _ in range(k - 1))
        p = [Fraction(x).limit_denominator(50) for x in cuts] + [Fraction(1)]
        probs = tuple(b - a for a, b in zip([Fraction(0)] + p[:-1], p))
        peak = (1,) + (0,) * (k - 1)
        assert vec_compare(peak, probs).outcome in (
            Outcome.MAJORIZES,
            Outcome.EQUIVALENT,
        )
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        signed = (1 + a, -a) + (0,) * (k - 2)
        assert vec_compare(signed, peak).outcome is Outcome.MAJORIZES


def _random_vector(rng, length):
    return tuple(
        Fraction(rng.randint(-6, 9), rng.randint(1, 6)) for _ in range(length)
    )


def _matched_pair(rng):
    k = rng.randint(2, 6)
    f = _random_vector(rng, k)
    g = list(_random_vector(rng, k))
    g[-1] = sum(f) - sum(g[:-1])  # force equal totals
    return f, tuple(g)


def test_statement_equivalence_random():
    rng = random.Random(17)
    for _ in range(300):
        f, g = _matched_pair(rng)
        verdict = vec_compare(f, g).outcome
        fwd, bwd = vec_statement4(f, g)
        assert fwd == (verdict in (Outcome.MAJORIZES, Outcome.EQUIVALENT))
        assert bwd == (verdict in (Outcome.MAJORIZED_BY, Outcome.EQUIVALENT))


def test_statement_equivalence_random_relative():
    rng = random.Random(23)
    for _ in range(200):
        f, g = _matched_pair(rng)
        q = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in f)
        verdict = vec_compare(f, g, q).outcome
        fwd, bwd = vec_statement4(f, g, q)
        assert fwd == (verdict in (Outcome.MAJORIZES, Outcome.EQUIVALENT))
        assert bwd == (verdict in (Outcome.MAJORIZED_BY, Outcome.EQUIVALENT))


def test_nv_monotone_under_majorization():
    rng = random.Random(29)
    checked = 0
    while checked < 100:
        f, g = _matched_pair(rng)
        if vec_compare(f, g).outcome is Outcome.MAJORIZES:
            assert negative_volume_vec(f) >= negative_volume_vec(g)
            checked += 1


def test_apply_permutation_is_equivalent():
    perm = StochasticMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    f = QuasiVector((Fraction(3, 2), Fraction(-1, 2), 0))
    assert vec_compare(f, apply_matrix(perm, f)).outcome is Outcome.EQUIVALENT


def test_apply_averaging_matrix():
    s = StochasticMatrix(((Fraction(1, 2), Fraction(1, 2)),) * 2)
    out = apply_matrix(s, (1, 0))
    assert out.entries == (Fraction(1, 2), Fraction(1, 2))
    assert vec_compare((1, 0), out).outcome is Outcome.MAJORIZES


def _random_doubly_stochastic(rng, k):
    # convex combination of permutation matrices (square SDS must be DS)
    mats = []
    weights = [Fraction(rng.randint(1, 5)) for _ in range(3)]
    total = sum(weights)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for w in weights:
        perm = list(range(k))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] += Fraction(w, total)
    return StochasticMatrix(tuple(tuple(r) for r in rows))


def test_random_ds_never_reverses():
    rng = random.Random(31)
    for _ in range(200):
        k = 5
        s = _random_doubly_stochastic(rng, k)
        assert s.is_sds()
        f = _random_vector(rng, k)
        out = apply_matrix(s, f)
        assert vec_compare(f, out).outcome in (
            Outcome.MAJORIZES,
            Outcome.EQUIVALENT,
        )


def test_rectangular_strict_sds():
    # 3 -> 6 spreading map: columns stochastic, every row sum strictly < 1
    third = Fraction(1, 3)
    rows = (
        (third, 0, 0),
        (third, third, 0),
        (third, 0, third),
        (0, third, third),
        (0, third, 0),
        (0, 0, third),
    )
    s = StochasticMatrix(rows)
    assert s.is_sds()
    assert all(sum(r) < 1 for r in rows)
    f = (Fraction(3, 2), Fraction(-1, 4), Fraction(-1, 4))
    out = apply_matrix(s, f)
    assert vec_compare(f, out).outcome is Outcome.MAJORIZES


def _random_q_stochastic(rng, q):
    # compose two-level moves that preserve q exactly
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


def test_random_sqs_never_reverses_relative():
    rng = random.Random(37)
    for _ in range(150):
        k = 4
        q = tuple(Fraction(rng.randint(1, 6)) for _ in range(k))
        s = _random_q_stochastic(rng, q)
        assert s.is_sqs(q)
        f = _random_vector(rng, k)
        out = apply_matrix(s, f)
        assert vec_compare(f, out, q).outcome in (
            Outcome.MAJORIZES,
            Outcome.EQUIVALENT,
        )


def test_preorder_properties_via_chains():
    rng = random.Random(41)
    for _ in range(40):
        k = 5
        f = _random_vector(rng, k)
        g = apply_matrix(_random_doubly_stochastic(rng, k), f)
        h = apply_matrix(_random_doubly_stochastic(rng, k), g)
        assert vec_compare(f, f).outcome is Outcome.EQUIVALENT
        for a, b in ((f, g), (g, h), (f, h)):
            fwd = vec_compare(a, b).outcome
            rev = vec_compare(b, a).outcome
            assert fwd in (Outcome.MAJORIZES, Outcome.EQUIVALENT)
            assert (fwd is Outcome.MAJORIZES) == (rev is Outcome.MAJORIZED_BY)


def test_thermal_embedding_uniform_reduces_to_regular():
    f = (Fraction(9, 10), Fraction(1, 10))
    q = gibbs(0.0, [0.0, 1.0])
    pos, neg = vec_lorenz(QuasiVector(f), q)
    assert q == (0.5, 0.5)
    reg_pos, _ = vec_lorenz(QuasiVector(f))
    # same curve up to the uniform rescaling of the abscissa
    assert [(2 * s, l) for s, l in pos] == [(s, l) for s, l in reg_pos]
    verdict_rel = vec_compare(f, (Fraction(1, 2), Fraction(1, 2)), q)
    verdict_reg = vec_compare(f, (Fraction(1, 2), Fraction(1, 2)))
    assert verdict_rel.outcome == verdict_reg.outcome


def test_thermal_embedding_gibbs_is_flat_line():
    beta, energies = 0.7, [0.0, 1.0, 2.0]
    z = sum(math.exp(-beta * e) for e in energies)
    f = tuple(math.exp(-beta * e) / z for e in energies)
    pos, neg = vec_lorenz(QuasiVector(f), gibbs(beta, energies))
    for s, l in pos:
        assert l == pytest.approx(s, abs=1e-12)
    assert neg == [(0, 0), (1, 0)]


def test_thermal_embedding_two_level_slopes():
    f = (0.9, 0.1)
    q = gibbs(1.0, [0.0, 1.0])
    pos, _ = vec_lorenz(QuasiVector(f), q)
    slopes = [
        (pos[k][1] - pos[k - 1][1]) / (pos[k][0] - pos[k - 1][0])
        for k in range(1, len(pos))
    ]
    ratios = sorted((f[0] / q[0], f[1] / q[1]), reverse=True)
    assert slopes == pytest.approx(ratios)


def test_exactness_of_fraction_pipeline():
    f = (Fraction(5, 3), Fraction(-2, 3))
    pos, neg = vec_lorenz(QuasiVector(f), (Fraction(1, 2), Fraction(3, 2)))
    for s, l in pos + neg:
        assert isinstance(s, (int, Fraction))
        assert isinstance(l, (int, Fraction))
