from __future__ import annotations

import copy
import math
import pickle
import re
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qmaj import states
from qmaj.channels import apply_dephasing
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
    _orbits,
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
    StateSpec,
    Tensor,
    Thermal,
    cubic_phase_wavefunction,
    parse_state,
    pretty,
    reference,
    render,
    thermal_reference_family,
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
        # numpy scalars print as plain literals
        Thermal(np.float64(0.5)),
        Coherent(np.complex128(1 - 0.25j)),
        Mix((np.float64(0.75), 0.25), (Fock(1), Thermal(0.4))),
    ]
    for spec in zoo:
        assert parse_state(pretty(spec)) == spec
    assert pretty(Thermal(np.float64(0.5))) == "thermal(nbar=0.5)"


ONE_OF_EACH = [
    Fock(3),
    Coherent(1 - 0.5j),
    Thermal(0.4),
    Cat(2.0),
    ON(2 + 1j, 3),
    Cubic(0.02, 0.1),
    Lossy(0.7, Mix((0.5, 0.5), (Fock(1), Fock(2)))),
    Dephase(0.5, Cat(1.0)),
    Mix((0.75, 0.25), (Cat(2.0), Fock(7))),
    Tensor((Dephase(1.0, Coherent(1j)), Lossy(0.3, Fock(2)))),
]


def test_grammar_covers_every_state_type():
    assert {type(x) for x in ONE_OF_EACH} == set(StateSpec.__subclasses__())
    for spec in ONE_OF_EACH:
        assert parse_state(pretty(spec)) == spec


def test_readme_state_literals_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## State grammar", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```text\n(.*?)```", section, re.S)
    literals = [line for block in blocks for line in block.splitlines() if line]
    specs = [parse_state(text) for text in literals]
    # one example per state type, and nested ones too
    assert {type(x) for x in specs} == set(StateSpec.__subclasses__())


@pytest.mark.parametrize(
    "text, message",
    [
        ("on(a=1, n=2.5)", "on() n must be an integer, got 2.5"),
        ("cat(alpha=1+2i)", "bad argument for cat: float() argument must be a "
                            "string or a real number, not 'complex'"),
        ("coherent(alpha=1, beta=2)", "coherent got unknown argument beta="),
        ("lossy(eta=0.5)", "lossy takes 1 inner state(s), got 0"),
        ("foo(x=1)", "unknown state function 'foo'"),
        ("mix(fock:1)", "mix takes weighted parts: mix(w:state, ...)"),
        ("thermal(0.5:vacuum)", "thermal needs argument nbar="),
        ("dephase(gamma=1, vacuum, 0.5:vacuum)", "dephase takes no weighted parts"),
        ("lossy(eta=0.5, fock:1, fock:2)", "lossy takes 1 inner state(s), got 2"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_state(text)
    assert type(err.value) is ParseError
    assert err.value.position == 0
    assert str(err.value) == f"{message} (at offset 0)"


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


def test_coherent_husimi(half_grid):
    # alpha on a cell centre: unit integral, peak 1/pi at alpha
    f = render("coherent(alpha=0.51+0.25i)", half_grid, rep="husimi")
    assert f.total_integral == pytest.approx(1.0, abs=1e-12)
    peak = np.unravel_index(np.argmax(f.as_nd()), half_grid.shape)
    assert tuple(half_grid.axis()[list(peak)]) == pytest.approx((0.51, 0.25))
    assert f.values.max() == pytest.approx(1.0 / math.pi, rel=1e-12)


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


def test_dephase_of_rotation_invariant_state_is_exact(half_grid, one_grid):
    # dephasing leaves a Fock-diagonal state as it is: no filter runs
    inners = ["fock:2", "thermal(nbar=0.4)", "mix(0.5:fock:1, 0.5:lossy(eta=0.3, fock:3))"]
    for grid in (half_grid, one_grid):
        for inner in inners:
            for rep in ("wigner", "husimi"):
                f = render(f"dephase(gamma=10, {inner})", grid, rep)
                target = render(inner, grid, rep)
                assert f.fold.tobytes() == target.fold.tobytes()
                assert f.values.tobytes() == target.values.tobytes()


@pytest.mark.parametrize(
    "grid", [GridSpec(1, 10.0, 400), default_grid(hbar="one")], ids=["L10", "one"]
)
def test_dephase_render_filters_on_its_grid(grid):
    # a state that is not rotation invariant is dephased on the render's
    # own grid: bitwise the channel applied to its render
    got = render("dephase(gamma=0.5, cat(alpha=1))", grid)
    want = apply_dephasing(0.5, render("cat(alpha=1)", grid))
    assert got.values.tobytes() == want.values.tobytes()


OCTANT_SPECS = [f"fock:{n}" for n in range(6)] + [
    "thermal(nbar=0.4)",
    "lossy(eta=0.7, fock:1)",
    "mix(0.25:fock:1, 0.75:thermal(nbar=1.5))",
]


@pytest.mark.parametrize("points", [64, 700])
@pytest.mark.parametrize("hbar", ["half", "one"])
def test_octant_renders_match_mesh(points, hbar):
    # rotation-invariant states are evaluated on the octant alone; every
    # cell equals the closed form evaluated on the whole mesh, bitwise
    grid = GridSpec(1, 7.0 if hbar == "half" else 7.0 * math.sqrt(2.0), points, hbar)
    ax = grid.axis() / (math.sqrt(2.0) if hbar == "one" else 1.0)
    x, p = ax[:, None], ax[None, :]
    scale = 0.5 if hbar == "one" else 1.0
    cells = _orbits(grid, "xpt").cells

    def octant_of(mesh):
        return mesh.ravel()[cells].tobytes()

    for rep in ("wigner", "husimi"):
        for text in OCTANT_SPECS:
            f = render(text, grid, rep)
            assert "values" not in vars(f)  # built on first read
            mesh = parse_state(text).sample(rep, grid, "") * scale
            assert f.values.tobytes() == mesh.ravel().tobytes()
            assert f.fold.tobytes() == octant_of(mesh)
    q = reference("thermal(nbar=-1)", grid)
    mesh = np.exp(-2.0 * (x**2 + p**2) / -1.0)
    assert q.values.tobytes() == mesh.ravel().tobytes()
    assert q.fold.tobytes() == octant_of(mesh)


@pytest.mark.parametrize(
    "spec, grid, rep, named",
    [
        # n! beyond the float range
        ("fock:171", GridSpec(1, 7.0, 60), "husimi", "fock:171"),
        ("on(a=1, n=200)", GridSpec(1, 7.0, 60), "wigner", "on(a=1.0+0.0i, n=200)"),
        # r^2n overflows to inf: every cell at N=60, 2 of the 61,425 octant
        # cells of fock:155 on the default grid
        ("fock:170", GridSpec(1, 7.0, 60), "husimi", "fock:170"),
        ("fock:155", GridSpec(1, 7.0, 700), "husimi", "fock:155"),
        # L_n(4r^2) overflows where exp(-2r^2) underflows: 0 * inf is NaN
        ("fock:200", GridSpec(1, 20.0, 400), "wigner", "fock:200"),
        ("mix(0.5:vacuum, 0.5:fock:170)", GridSpec(1, 7.0, 60), "husimi",
         "mix(0.5:vacuum, 0.5:fock:170)"),
        ("tensor(vacuum, fock:171)", GridSpec(2, 7.0, 8), "husimi", "fock:171"),
    ],
)
def test_overflowing_render_raises(spec, grid, rep, named):
    with pytest.raises(NumericsError) as err:
        render(spec, grid, rep)
    message = str(err.value)
    assert message.startswith(f"{named} ")
    assert f"L={grid.half_width:g}, N={grid.points_per_axis}" in message


def test_largest_finite_renders_stay_finite():
    # just below the overflow: fock:155 on the default grid, and n! beyond
    # the float range from n = 171 on any window
    assert math.isfinite(render("fock:154", rep="husimi").total_integral)
    assert math.isfinite(render("fock:170", GridSpec(1, 3.0, 60), rep="husimi").total_integral)


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


def test_reference_must_be_finite(half_grid):
    # just below nbar = -1/2 the growing Gaussian overflows the window
    for nbar in (-0.6, -0.55):
        with pytest.raises(ConfigError, match="must be finite"):
            reference(Thermal(nbar), half_grid)
    for nbar in (-1, -2):
        q = reference(Thermal(nbar), half_grid)
        assert math.isfinite(q.fold.max()) and math.isfinite(q.total_integral)


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


def test_lossy_mixture_is_the_mixture_of_lossy_parts():
    # loss acts on the mixture's summed photon-number weights
    grid = GridSpec(points_per_axis=60)
    mixed = render("lossy(eta=0.5, mix(0.5:fock:1, 0.5:fock:2))", grid)
    parts = [render(f"lossy(eta=0.5, fock:{n})", grid) for n in (1, 2)]
    want = 0.5 * parts[0].values + 0.5 * parts[1].values
    assert np.abs(mixed.values - want).max() <= 1e-15


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



def test_tensor_parts_are_rendered_once():
    # equal parts are one object, in a rendered tensor and in its reference,
    # and a pickled or deep-copied function keeps them one
    two = GridSpec(modes=2, half_width=5.0, points_per_axis=16)
    f = render("tensor(fock:2, fock:2)", two)
    g = render("tensor(fock:2, fock:1)", two)
    q = reference("tensor(thermal(nbar=1), thermal(nbar=1))", two)
    assert f.factors[0] is f.factors[1] and g.factors[0] is not g.factors[1]
    assert q.factors[0] is q.factors[1]
    for x in (f, q):
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert twin.factors[0] is twin.factors[1] is not x.factors[0]
            assert twin.values.tobytes() == x.values.tobytes()
    # a negative factor is negated once for both of its places
    one = GridSpec(1, 5.0, 16)
    h = SampledDistribution(one, -render("vacuum", one).values)
    r = states._as_reference(SampledDistribution(two, None, (h, h)))
    assert r.factors[0] is r.factors[1]
    assert r.values.tobytes() == np.multiply.outer(h.values, h.values).tobytes()


def test_thermal_family_on_two_modes():
    # one thermal per mode, the two factors one object
    two = GridSpec(modes=2, half_width=5.0, points_per_axis=16)
    q = thermal_reference_family(two)(1.0)
    want = reference("tensor(thermal(nbar=1), thermal(nbar=1))", two)
    assert q.factors[0] is q.factors[1]
    assert q.values.tobytes() == want.values.tobytes()
    # a negative nbar too: each factor is the one-mode reference, so neither
    # it nor the product is integrable
    q = thermal_reference_family(two)(-1.0)
    one = reference("thermal(nbar=-1)", GridSpec(1, 5.0, 16))
    assert q.factors[0] is q.factors[1] and not q.factors[0].integrable
    assert not q.integrable
    assert q.factors[0].fold.tobytes() == one.fold.tobytes()
    mixed = reference("tensor(thermal(nbar=-1), vacuum)", two)
    assert not mixed.integrable and mixed.factors[1].integrable

# a cat or on() part makes the mix keep only its mirrors, so it is given
# the quadrant or the half p > 0, and its Fock part is sampled on the
# octant and read there
FOLDED_MIXES = [
    "mix(0.75:cat(alpha=2), 0.25:fock:7)",
    "mix(0.5:on(a=2,n=3), 0.5:fock:1)",
]


@pytest.mark.parametrize("points", [350, 700])
@pytest.mark.parametrize("hbar", ["half", "one"])
def test_mixture_fold_matches_mesh(points, hbar):
    # every cell equals the sum of the parts' samples on the whole mesh,
    # bitwise, and so does a dephasing of such a mix on the same grid
    grid = GridSpec(1, 7.0 if hbar == "half" else 7.0 * math.sqrt(2.0), points, hbar)
    scale = 0.5 if hbar == "one" else 1.0

    def mesh_sum(spec, rep):
        acc = spec.weights[0] * spec.parts[0].sample(rep, grid, "")
        for w, part in zip(spec.weights[1:], spec.parts[1:]):
            acc += w * part.sample(rep, grid, "")
        return acc

    for rep in ("wigner", "husimi"):
        for text in FOLDED_MIXES:
            spec = parse_state(text)
            assert spec.group in ("xp", "p")
            want = mesh_sum(spec, rep) * scale
            assert render(spec, grid, rep).values.tobytes() == want.tobytes()
        if points == 700 and (rep, hbar) != ("wigner", "half"):
            continue  # one dephasing of the 700-point mesh is enough
        spec = parse_state(FOLDED_MIXES[0])
        mesh = SampledDistribution(grid, mesh_sum(spec, rep).ravel())
        want = apply_dephasing(0.5, mesh).values * scale
        got = render(Dephase(0.5, spec), grid, rep).values
        assert got.tobytes() == want.tobytes()


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
        statement4_check(pair, cubic, q, eps_norm=2e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.size * 8


def test_table3_step_builds_no_cell_array(half_grid):
    # a thermal reference and the Fock states it ranks are built on the
    # octant, and a relative compare reads only the octants; one cell array
    # of the default grid is 3.9 MB
    f, g = render("fock:5", half_grid), render("vacuum", half_grid)
    family = thermal_reference_family(half_grid)
    compare(f, g, family(2.9))  # warm: the grid's orbit table is kept
    tracemalloc.start()
    try:
        q = family(2.9)
        _, reference_peak = tracemalloc.get_traced_memory()
        compare(f, g, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not any("values" in vars(h) for h in (f, g, q))
    assert reference_peak < half_grid.size * 8
    # the two curve pairs at full resolution and their merged breakpoints
    assert peak < 2 * half_grid.size * 8


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

def harmonic_eigenfunction(n: int, x: np.ndarray, hbar: str = "half") -> np.ndarray:
    """Normalized oscillator eigenfunction, stable normalized recurrence."""
    root2 = math.sqrt(2.0)
    if hbar == "half":
        xi = root2 * x
        psi = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    else:
        xi = x
        psi = (1.0 / math.pi) ** 0.25 * np.exp(-0.5 * x * x)
    prev = np.zeros_like(psi)
    for k in range(n):
        prev, psi = psi, (xi * root2 * psi - math.sqrt(k) * prev) / math.sqrt(k + 1)
    return psi


def test_wavefunction_vacuum_consistency(half_grid):
    w = wigner_from_wavefunction(partial(harmonic_eigenfunction, 0), half_grid, 8.0, 5.0)
    target = render("vacuum", half_grid)
    assert np.abs(w.values - target.values).max() < 1e-4
    assert w.total_integral == pytest.approx(1.0, abs=1e-3)


def test_wavefunction_hermite1_consistency(half_grid):
    w = wigner_from_wavefunction(partial(harmonic_eigenfunction, 1), half_grid, 8.0, 5.0)
    target = render("fock:1", half_grid)
    assert np.abs(w.values - target.values).max() < 1e-4


def test_wavefunction_hbar_one():
    grid = default_grid(hbar="one")
    psi = partial(harmonic_eigenfunction, 0, hbar="one")
    w = wigner_from_wavefunction(psi, grid, 11.0, 7.0)
    target = render("vacuum", grid)
    assert np.abs(w.values - target.values).max() < 1e-4


def test_wavefunction_momentum_sign():
    # a coherent state with p0 != 0: a flipped momentum axis would render
    # conj(alpha) = 0.8-0.6i, 0.6 away in sup norm
    def psi(x):
        return (2.0 / math.pi) ** 0.25 * np.exp(-((x - 0.8) ** 2) + 1.2j * x)

    grid = default_grid()
    w = wigner_from_wavefunction(psi, grid, 8.0, 6.0)
    target = render(Coherent(0.8 + 0.6j), grid)
    assert np.abs(w.values - target.values).max() < 1e-12


def airy_cubic_wigner(g: float, s: float, grid: GridSpec) -> np.ndarray:
    """Closed-form Wigner function of cubic(g, s), hbar=1/2, via Airy Ai.

    W = (2/pi) N^2 exp(-2 s x^2) I(4p - 6 g x^2) with N^2 = sqrt(2s/pi) and
    I(P) = int exp(-2 s y^2 + i(2 g y^3 - P y)) dy
         = sqrt(pi/(2s)) sqrt(4 pi a) Ai(z + a^2) exp(a z + 2a^3/3),
    c = (6g)^(1/3), a = 2s/c^2, z = -P/c.  Where z + a^2 > 0 the scaled
    airye keeps Ai times its exponential in range.
    """
    from scipy.special import airy, airye

    x = grid.axis()[:, None]
    p = grid.axis()[None, :]
    c = (6.0 * g) ** (1.0 / 3.0)
    a = 2.0 * s / c**2
    z = -(4.0 * p - 6.0 * g * x * x) / c
    zeta = z + a * a
    expo = a * z + 2.0 * a**3 / 3.0
    pos = zeta > 0
    zp = np.where(pos, zeta, 0.0)
    scaled = airye(zp)[0] * np.exp(expo - 2.0 / 3.0 * zp**1.5)
    plain = airy(np.where(pos, 0.0, zeta))[0] * np.exp(np.where(pos, 0.0, expo))
    integral = (
        math.sqrt(math.pi / (2.0 * s))
        * math.sqrt(4.0 * math.pi * a)
        * np.where(pos, scaled, plain)
    )
    norm2 = math.sqrt(2.0 * s / math.pi)
    return (2.0 / math.pi) * norm2 * np.exp(-2.0 * s * x * x) * integral


def test_cubic_matches_airy_closed_form():
    cases = [(0.02, 0.1), (0.1, 1.0), (0.3, 0.5), (1.0, 2.0)]
    for grid in (GridSpec(1, 5.0, 64), GridSpec(1, 7.0, 350), GridSpec(1, 7.0, 700)):
        # the strongest cubic phases, whose Airy ridge leaves the window,
        # on the two L=7 grids
        extra = [(1.0, 0.1), (0.5, 0.2)] if grid.half_width == 7.0 else []
        for g, s in cases + extra:
            w = render(f"cubic(g={g}, s={s})", grid).as_nd()
            exact = airy_cubic_wigner(g, s, grid)
            err = np.abs(w - exact).max() / np.abs(exact).max()
            assert err < 1e-12, (grid.points_per_axis, g, s, err)


def test_wavefunction_transform_bounds_its_temporaries(half_grid, monkeypatch):
    # the chirp-z sum runs over blocks of rows, which bounds its temporaries
    # (one pass over all 700 rows peaked at 92 MB) and gives the one-pass
    # output bitwise
    spec = parse_state("cubic(g=0.02, s=0.1)")
    render(spec, half_grid)  # warm: numpy's FFT plans
    tracemalloc.start()
    try:
        f = render(spec, half_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * half_grid.size * 8  # eight cell arrays, 31 MB
    monkeypatch.setattr(states, "_TRANSFORM_ROWS", half_grid.points_per_axis)
    assert render(spec, half_grid).values.tobytes() == f.values.tobytes()


def test_cubic_state_negativity(half_grid):
    f = render("cubic(g=0.02, s=0.1)", half_grid)
    assert f.total_integral == pytest.approx(1.0, abs=1e-3)
    assert negative_volume(f) > 1e-3
    rep = truncation_report(f)
    assert rep.normalization_defect < 1e-3


def test_wavefunction_norm_validation(half_grid):
    def psi(x):
        return 2.0 * harmonic_eigenfunction(0, x)

    with pytest.raises(NumericsError):
        wigner_from_wavefunction(psi, half_grid, 8.0, 5.0)


@pytest.mark.parametrize("where", ["psi", "reach", "p_reach"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wavefunction_rejects_non_finite(half_grid, where, bad):
    def psi(x):
        out = harmonic_eigenfunction(0, x).astype(complex)
        out[len(out) // 2] = bad
        return out

    args = {"psi": psi, "reach": 8.0, "p_reach": 5.0}
    if where != "psi":
        args.update(psi=partial(harmonic_eigenfunction, 0), **{where: bad})
    with pytest.raises(ConfigError, match="finite"):
        wigner_from_wavefunction(grid=half_grid, **args)


def test_wavefunction_nyquist_check(half_grid):
    # a position or momentum reach that needs a lattice past the budget is
    # refused before psi is evaluated
    def psi(x):
        raise AssertionError("psi evaluated")

    for reach, p_reach in ((8.0, 1e9), (1e9, 5.0), (8.0, 1e308)):
        with pytest.raises(NyquistError):
            wigner_from_wavefunction(psi, half_grid, reach, p_reach)


@pytest.mark.parametrize("spec", ["cubic(g=1e6, s=0.1)", "cubic(g=0.02, s=1e-9)"])
def test_cubic_over_budget_is_refused_before_allocating(half_grid, spec):
    # the first needs a y step below 1e-8 to stay alias-free, the second a
    # y range of 1.6e5: both are refused before any lattice is allocated
    tracemalloc.start()
    try:
        with pytest.raises(NyquistError):
            render(spec, half_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cubic_wavefunction_reduces_to_vacuum():
    x = np.arange(-8.0, 8.0, 0.01)
    psi = cubic_phase_wavefunction(0.0, 1.0, x)
    np.testing.assert_allclose(psi.real, harmonic_eigenfunction(0, x), atol=1e-12)


def test_parse_refuses_repeated_argument():
    # a key given twice is refused like an unknown one, not the last kept
    for text in ("cat(alpha=1, alpha=2)", "on(a=1, n=2, a=3)", "lossy(eta=0.7, eta=0.2, fock:1)"):
        with pytest.raises(ParseError, match="twice"):
            parse_state(text)


# the states whose closed forms keep a group of grid symmetries, by group
FOLD_GROUPS = {
    "cat(alpha=1)": "xp",
    "cat(alpha=2)": "xp",
    "coherent(alpha=1)": "p",
    "coherent(alpha=1.5i)": "x",
    "coherent(alpha=0)": "xpt",
    "on(a=2,n=3)": "p",
    "on(a=2,n=2)": "xp",
    "on(a=2i,n=3)": "x",
    "on(a=2i,n=2)": "",
    "mix(0.75:cat(alpha=2), 0.25:fock:7)": "xp",
    "mix(0.5:on(a=2,n=3), 0.5:fock:1)": "p",
}


@pytest.mark.parametrize("hbar", ["half", "one"])
def test_fold_renders_match_mesh(hbar):
    # each state is rendered on the fold of its group alone; every cell
    # equals the closed form evaluated on the whole mesh, bitwise
    grid = default_grid(hbar=hbar)
    scale = 0.5 if hbar == "one" else 1.0
    for rep in ("wigner", "husimi"):
        for text, group in FOLD_GROUPS.items():
            spec = parse_state(text)
            f = render(spec, grid, rep)
            assert f.group == spec.group == group
            assert (f.fold is None) == (group == "")
            assert group == "" or "values" not in vars(f)  # built on first read
            parts = spec.parts if isinstance(spec, Mix) else (spec,)
            weights = spec.weights if isinstance(spec, Mix) else (1.0,)
            mesh = weights[0] * parts[0].sample(rep, grid, "")
            for w, part in zip(weights[1:], parts[1:]):
                mesh += w * part.sample(rep, grid, "")
            assert f.values.tobytes() == np.ravel(mesh * scale).tobytes()
