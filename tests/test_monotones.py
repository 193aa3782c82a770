from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmaj import states
from qmaj.cli import write_grid_file
from qmaj.compare import Outcome, compare, statement4_check
from qmaj.errors import ConfigError
from qmaj.grids import (
    DiscreteSpace,
    GridSpec,
    ReferenceDistribution,
    SampledDistribution,
    default_grid,
    truncation_report,
)
from qmaj.monotones import (
    _PLAIN,
    extreme_values,
    g_monotone,
    lp_norm,
    monotone_report,
    negative_volume,
    phi_functional,
    purity,
    renyi_divergence,
    renyi_entropy,
    tsallis_entropy,
)
from qmaj.rearrange import codistribution_function, curves, distribution_function


def test_nv_probability_distribution(zoo):
    assert negative_volume(zoo["thermal04"]) == 0.0
    assert negative_volume(zoo["coherent"]) == 0.0


def test_nv_is_exactly_zero_without_negative_cells(half_grid, one_grid):
    # an octant-built total_integral rounds a few ulps apart from the cell
    # sum, so only the negative mass itself is exactly 0 here
    for grid in (half_grid, one_grid):
        for text, rep in [
            ("thermal(nbar=0.4)", "wigner"),
            ("vacuum", "wigner"),
            ("fock:3", "husimi"),
            ("mix(0.5:fock:1, 0.5:thermal(nbar=2))", "husimi"),
        ]:
            assert negative_volume(states.render(text, grid, rep)) == 0.0


def test_nv_fock4_table_value(fock):
    assert negative_volume(fock[4]) == pytest.approx(0.596, abs=5e-3)


def test_nv_fock1_radial_oracle(fock):
    # independent path: radial quadrature of |W_1| with W_1 = (2/pi)
    # exp(-2 r^2) (4 r^2 - 1); closed form 2 exp(-1/2) - 1
    def integrand(r):
        return abs((2 / math.pi) * math.exp(-2 * r * r) * (4 * r * r - 1)) * 2 * math.pi * r

    l1, _ = quad(integrand, 0.0, 12.0, points=[0.5], limit=200)
    oracle = 0.5 * (l1 - 1.0)
    assert oracle == pytest.approx(2 * math.exp(-0.5) - 1, abs=1e-9)
    assert negative_volume(fock[1]) == pytest.approx(oracle, abs=2e-3)


def test_lp_norm_rejects_small_alpha(fock):
    with pytest.raises(ConfigError):
        lp_norm(fock[1], 0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_alphas_must_be_finite(fock, vacuum_ref, alpha):
    # NaN fails every range comparison, and an infinite alpha turns |f|**alpha
    # into 0 or 1 rather than a limit such as max |f|
    for fn in (lp_norm, renyi_entropy, tsallis_entropy):
        with pytest.raises(ConfigError):
            fn(fock[1], alpha)
    with pytest.raises(ConfigError):
        renyi_divergence(fock[1], vacuum_ref, alpha)


def test_purity_table_values(fock, zoo):
    assert purity(fock[4]) == pytest.approx(1.000, abs=5e-3)
    assert purity(zoo["lossy1"]) == pytest.approx(0.580, abs=5e-3)


def test_mixture_purity_analytic(half_grid):
    mixed = states.render("mix(0.3:vacuum, 0.7:fock:1)", half_grid)
    assert purity(mixed) == pytest.approx(0.09 + 0.49, abs=1e-3)


def test_renyi_entropy_vacuum(fock):
    assert renyi_entropy(fock[0], 2.0) == pytest.approx(math.log(math.pi), abs=1e-3)


def test_tsallis_entropy_vacuum(fock):
    # 1 - integral of W^2, and the vacuum's is 1/pi with hbar = 1/2
    assert tsallis_entropy(fock[0], 2.0) == pytest.approx(1.0 - 1.0 / math.pi, abs=1e-9)


def test_renyi_entropy_lossy(zoo):
    expected = math.log(math.pi) - math.log(0.580)
    assert renyi_entropy(zoo["lossy1"], 2.0) == pytest.approx(expected, abs=1e-2)


def test_entropy_alpha_validation(fock, vacuum_ref):
    for fn in (renyi_entropy, tsallis_entropy):
        with pytest.raises(ConfigError):
            fn(fock[0], 1.0)
    with pytest.raises(ConfigError):
        renyi_divergence(fock[0], vacuum_ref, 0.9)


def test_divergence_of_state_from_itself(half_grid):
    f = states.render("thermal(nbar=0.4)", half_grid)
    q = states.reference("thermal(nbar=0.4)", half_grid)
    assert renyi_divergence(f, q, 2.0) == pytest.approx(0.0, abs=1e-6)


def test_extreme_values_table(one_grid):
    w4 = states.render("fock:4", one_grid)
    mx, mn = extreme_values(w4)
    assert mx == pytest.approx(0.318, abs=5e-3)
    assert mn == pytest.approx(0.129, abs=5e-3)
    lossy = states.render("lossy(eta=0.7, fock:1)", one_grid)
    mx, mn = extreme_values(lossy)
    assert mx == pytest.approx(0.123, abs=5e-3)
    assert mn == pytest.approx(0.127, abs=5e-3)


def test_extreme_values_probability(zoo):
    mx, mn = extreme_values(zoo["thermal04"])
    assert mx > 0 and mn == 0.0


def test_extreme_values_of_a_side_with_no_cells_are_plus_zero():
    # also when the smallest cell is 0.0; a NaN cell gives NaN
    space = DiscreteSpace(2)
    mx, mn = extreme_values(SampledDistribution(space, np.array([0.0, 1.0])))
    assert mx == 1.0 and math.copysign(1.0, mn) == 1.0
    mx, mn = extreme_values(SampledDistribution(space, np.array([-0.0, -1.0])))
    assert math.copysign(1.0, mx) == 1.0 and mn == 1.0
    nan = SampledDistribution(space, np.array([math.nan, 1.0]))
    assert all(math.isnan(v) for v in extreme_values(nan))


def test_g_monotone(fock):
    assert g_monotone(fock[0]) == 0.0  # positive curve saturates below 1
    assert g_monotone(fock[4]) > 0.0
    assert g_monotone(fock[4]) > g_monotone(fock[1]) * 0  # defined and finite


def test_nv_and_g_stable_under_refinement():
    coarse = GridSpec(modes=1, half_width=7.0, points_per_axis=500)
    fine = GridSpec(modes=1, half_width=7.0, points_per_axis=700)
    for spec in ("fock:1", "fock:4"):
        a = states.render(spec, coarse)
        b = states.render(spec, fine)
        assert negative_volume(a) == pytest.approx(negative_volume(b), rel=2e-3)
        assert g_monotone(a) == pytest.approx(g_monotone(b), rel=2e-2)


def test_phi_self_is_l2_norm(fock):
    val = phi_functional(fock[4], fock[4])
    assert val == pytest.approx(lp_norm(fock[4], 2.0) ** 2, rel=1e-10)


def test_phi_symmetry(fock):
    a = phi_functional(fock[0], fock[1])
    b = phi_functional(fock[1], fock[0])
    assert a == pytest.approx(b, rel=1e-12)


# small integers and halves tie and hit zero often; the wide floats stay
# clear of products that underflow
_ENTRIES = st.one_of(
    st.integers(-4, 4).map(lambda n: n / 2),
    st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) > 1e-100),
)


@st.composite
def _vector_pairs(draw):
    """Two float vectors of one length 1-8."""
    k = draw(st.integers(1, 8))
    return tuple(draw(st.lists(_ENTRIES, min_size=k, max_size=k)) for _ in range(2))


def _exact_phi(f, g) -> Fraction:
    """sum desc(f+) desc(g+) + sum asc(f-) asc(g-), in exact arithmetic."""
    f, g = [Fraction(x) for x in f], [Fraction(x) for x in g]
    pos = (sorted((max(x, 0) for x in v), reverse=True) for v in (f, g))
    neg = (sorted(min(x, 0) for x in v) for v in (f, g))
    return sum(a * b for a, b in zip(*pos)) + sum(a * b for a, b in zip(*neg))


@settings(max_examples=150)
@given(_vector_pairs())
def test_phi_matches_exact_sum_of_aligned_parts(pair):
    space = DiscreteSpace(len(pair[0]))
    f, g = (SampledDistribution(space, np.array(v)) for v in pair)
    exact = _exact_phi(*pair)
    assert abs(Fraction(phi_functional(f, g)) - exact) <= Fraction(1e-12) * exact


def test_phi_octant_matches_values_form(fock, zoo):
    # the octant form adds an orbit's equal cells in one product, so its
    # curves round apart from the cell sort of the same values
    folded = [fock[0], fock[1], fock[4], zoo["thermal04"], zoo["lossy1"]]
    copies = [SampledDistribution(f.grid, f.values) for f in folded]
    assert all(f.fold is not None for f in folded)
    for i, j in itertools.combinations_with_replacement(range(len(folded)), 2):
        want = phi_functional(copies[i], copies[j])
        assert phi_functional(folded[i], folded[j]) == pytest.approx(want, rel=1e-12)


def test_phi_incomparability_witness(fock):
    # strict inequality distinguishes |0> and |1> despite equal purity
    assert phi_functional(fock[0], fock[1]) < phi_functional(fock[0], fock[0])
    assert phi_functional(fock[1], fock[0]) < phi_functional(fock[1], fock[1])


def test_phi_cauchy_schwarz(zoo):
    names = list(zoo)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            f, g = zoo[a], zoo[b]
            bound = lp_norm(f, 2.0) * lp_norm(g, 2.0)
            assert phi_functional(f, g) <= bound + 1e-6


def test_convention_invariance():
    # paired default grids sample the same phase-space points, so NV and
    # purity agree to rounding while the extremes carry the factor two
    for spec in ("fock:4", "lossy(eta=0.7, fock:1)"):
        half = states.render(spec, default_grid(hbar="half"))
        one = states.render(spec, default_grid(hbar="one"))
        assert negative_volume(half) == pytest.approx(negative_volume(one), abs=1e-6)
        assert purity(half) == pytest.approx(purity(one), abs=1e-6)
        assert extreme_values(half)[0] == pytest.approx(
            2.0 * extreme_values(one)[0], abs=1e-9
        )
        assert extreme_values(half)[1] == pytest.approx(
            2.0 * extreme_values(one)[1], abs=1e-9
        )


def test_schur_ordering_on_majorizing_pairs(fock, vacuum_ref, half_grid):
    # Norms and extreme values respect the regular preorder; the relative
    # preorder is respected by the curve endpoints (negative volume) and by
    # the divergences.  W2 >_vac W1 with -min(W2) < -min(W1) shows the
    # regular monotones genuinely do not transfer.
    thermal1 = states.render("thermal(nbar=1)", half_grid)
    relative_cases = [
        (fock[2], fock[1], vacuum_ref),
        (fock[4], fock[3], vacuum_ref),
    ]
    for f, g, q in relative_cases:
        assert compare(f, g, q).outcome is Outcome.MAJORIZES
        assert negative_volume(f) >= negative_volume(g) - 1e-4
        for alpha in (1.5, 2.0, 3.0):
            assert renyi_divergence(f, q, alpha) >= renyi_divergence(g, q, alpha) - 1e-3

    f, g = fock[4], thermal1
    assert compare(f, g).outcome is Outcome.MAJORIZES
    assert negative_volume(f) >= negative_volume(g) - 1e-4
    for alpha in (1.5, 2.0, 3.0):
        assert lp_norm(f, alpha) >= lp_norm(g, alpha) - 1e-4
    assert extreme_values(f)[0] >= extreme_values(g)[0] - 1e-4
    assert extreme_values(f)[1] >= extreme_values(g)[1] - 1e-4


def test_monotone_report_selection(fock, half_grid):
    rep = monotone_report(fock[4], ["nv", "purity", "renyi:2"])
    assert list(rep) == ["nv", "purity", "renyi_2"]
    assert rep["renyi_2"] == renyi_entropy(fock[4], 2.0)
    with pytest.raises(ConfigError):
        monotone_report(fock[4], ["entropy"])
    with pytest.raises(ConfigError):
        monotone_report(fock[4], ["divergence:2"])  # needs a reference


# every monotone of monotone_report that reads f's cells one at a time
_POINTWISE = [
    "nv", "purity", "max", "min", "l1", "norm:2", "norm:3.5",
    "renyi:2", "tsallis:1.5", "divergence:2", "divergence:1.5",
]


@pytest.mark.parametrize(
    "spec",
    ["fock:3", "thermal(nbar=0.4)", "lossy(eta=0.7, fock:1)", "mix(0.3:fock:1, 0.7:fock:4)"],
)
def test_pointwise_monotones_read_the_octant(spec, half_grid, one_grid):
    # an octant-form function is read on its octant with orbit weights; the
    # sums run in another order than over its cells, so they agree to rounding
    for grid in (half_grid, one_grid):
        f = states.render(spec, grid)
        q = states.reference("thermal(nbar=0.6)", grid)
        assert f.fold is not None and q.fold is not None
        got = monotone_report(f, _POINTWISE, q)
        cells = SampledDistribution(grid, f.values)
        want = monotone_report(cells, _POINTWISE, ReferenceDistribution(grid, q.values))
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-12, abs=0), name


def test_pointwise_monotones_read_the_factors():
    # a product is read as the products of its factors' sums, masses and
    # extremes; the sums round differently from those over its cells, and
    # the extremes, products of extremes, are bitwise the cells' ones.  The
    # largest cell of tensor(fock:1, fock:1) is the product of two negative
    # ones, and a nested product reads its inner product's positive mass
    two = ("tensor(vacuum, vacuum)", "tensor(fock:2, fock:2)", "tensor(fock:1, fock:1)",
           "tensor(cat(alpha=1), fock:1)", "tensor(cubic(g=0.02, s=0.1), vacuum)")
    three = ("tensor(tensor(vacuum, vacuum), vacuum)", "tensor(tensor(fock:1, vacuum), fock:2)")
    for grid, (ref, *specs) in (
        (GridSpec(2, 5.0, 16), two), (GridSpec(2, 5.0, 32), two), (GridSpec(3, 5.0, 8), three)
    ):
        q = states.reference(ref, grid)
        assert all("values" not in vars(r) for r in (q, *q.factors))
        cells_q = ReferenceDistribution(grid, q.values)
        for spec in specs:
            f = states.render(spec, grid)
            got = monotone_report(f, _POINTWISE, q)
            assert "values" not in vars(f)
            want = monotone_report(SampledDistribution(grid, f.values), _POINTWISE, cells_q)
            assert got.keys() == want.keys()
            for name, value in want.items():
                assert got[name] == pytest.approx(value, rel=1e-12, abs=0), name
            assert (got["max"], got["min"]) == (want["max"], want["min"])
    # every monotone of f alone on the 64^4 grid, whose cells take 128 MiB
    f = states.render("tensor(fock:2, fock:2)", default_grid(modes=2))
    monotone_report(f, list(_PLAIN))
    assert "values" not in vars(f)


def test_monotone_report_builds_no_cells(half_grid):
    f = states.render("lossy(eta=0.7, fock:1)", half_grid)
    q = states.reference("thermal(nbar=0.6)", half_grid)
    monotone_report(f, [*_POINTWISE, "g"], q)
    assert "values" not in vars(f) and "values" not in vars(q)


@pytest.mark.parametrize(
    "spec, ref",
    [
        ("lossy(eta=0.7, fock:1)", "thermal(nbar=0.6)"),  # octant
        ("cat(alpha=2)", "thermal(nbar=0.6)"),  # quadrant
        ("coherent(alpha=1)", "coherent(alpha=0.5)"),  # half p > 0
        ("coherent(alpha=1.5i)", "thermal(nbar=0.6)"),  # half x > 0
        ("tensor(fock:2, fock:2)", "tensor(vacuum, vacuum)"),
    ],
)
def test_public_readers_build_no_cells(tmp_path, spec, ref):
    # every public reader but the documented cell readers reads the fold or
    # the factors of f, g and q alone
    grid = default_grid(modes=states.parse_state(spec).modes)
    grid = grid if grid.modes == 1 else GridSpec(2, 5.0, 16)
    f, g = states.render(spec, grid), states.render(spec, grid, "husimi")
    q = states.reference(ref, grid)
    assert all(h.fold is not None or h.factors for h in (f, g, q))
    truncation_report(f)
    monotone_report(f, [*_POINTWISE, "g"], q)
    for r in (None, q):
        curves(f, r)
        compare(f, g, r, eps_norm=1.0)
        statement4_check(f, g, r, eps_norm=1.0)
    phi_functional(f, g)
    for t in (-0.05, -0.0, 0.0, 0.05):
        distribution_function(f, t), codistribution_function(f, t)
    if f.fold is not None:
        write_grid_file(tmp_path / "f.grid", f)
    assert not any("values" in vars(h) for h in (f, g, q))
