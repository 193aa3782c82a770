from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmaj
from qmaj import channels, states
from qmaj.cli import main, parse_channel, write_grid_file
from qmaj.compare import compare, compare_curve_pairs
from qmaj.errors import ParseError
from qmaj.grids import GridSpec, SampledDistribution, truncation_report
from qmaj.rearrange import LorenzCurve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def record_of(stdout: str) -> dict:
    rec = {}
    for line in stdout.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, _, value = line.partition("=")
            rec[key] = value
    return rec


def load_curves_csv(path) -> tuple[LorenzCurve, LorenzCurve]:
    """The curve pair in a ``lorenz`` CSV: s, then L on each side."""
    s, l_plus, l_minus = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    return LorenzCurve(s, l_plus, "positive"), LorenzCurve(s, l_minus, "negative")


def read_grid_file(path) -> SampledDistribution:
    """The function in a grid file: the grid in its header, one value a line."""
    header, *cells = Path(path).read_text().splitlines()
    meta = dict(token.split("=") for token in header.split()[2:])
    grid = GridSpec(
        int(meta["modes"]), float(meta["half_width"]), int(meta["points"]), meta["hbar"]
    )
    return SampledDistribution(grid, np.array(cells, dtype=float))


def test_compare_equivalent(capsys):
    code, out, _ = run(capsys, "compare", "fock:2", "fock:2")
    assert code == 0
    assert record_of(out)["outcome"] == "equivalent"


def test_compare_relative_majorizes(capsys):
    code, out, _ = run(capsys, "compare", "fock:3", "fock:2", "--ref", "vacuum")
    assert code == 0
    assert record_of(out)["outcome"] == "majorizes"


def test_compare_fig4_incomparable(capsys):
    code, out, _ = run(capsys, "compare", "fock:4", "lossy(eta=0.7,fock:1)")
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "incomparable"
    assert "witness_s" in rec and "reverse_s" in rec


def test_lorenz_vacuum_closed_form(tmp_path, capsys):
    out_csv = tmp_path / "vac.csv"
    code, _, _ = run(capsys, "lorenz", "--state", "fock:0", "--out", str(out_csv))
    assert code == 0
    pos, neg = load_curves_csv(out_csv)
    s = np.linspace(0.0, 20.0, 500)
    np.testing.assert_allclose(pos(s), 1.0 - np.exp(-2.0 * s / math.pi), atol=1e-3)
    assert abs(neg.final) < 1e-12


def test_lorenz_husimi_relative_closed_form(tmp_path, capsys):
    out_csv = tmp_path / "h1.csv"
    code, _, _ = run(
        capsys,
        "lorenz", "--state", "fock:1", "--ref", "vacuum", "--rep", "husimi",
        "--out", str(out_csv),
    )
    assert code == 0
    pos, _ = load_curves_csv(out_csv)
    s = np.linspace(1e-4, 1.0, 500)
    np.testing.assert_allclose(pos(s), s * (1.0 - np.log(s)), atol=1e-3)


def test_lorenz_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "lorenz", "--state", "fock:1", "--out", str(a))
    run(capsys, "lorenz", "--state", "fock:1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_lorenz_without_out_writes_stdout(tmp_path, capsys):
    path = tmp_path / "a.csv"
    argv = ("lorenz", "--state", "fock:1", "--grid", "N=60")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    run(capsys, *argv, "--out", str(path))
    assert out == path.read_text()


def test_lorenz_notes_truncation_sensitive_reference(capsys):
    code, out, err = run(
        capsys,
        "lorenz", "--state", "fock:1", "--ref", "thermal(nbar=-1)", "--grid", "N=60",
    )
    assert code == 0 and out.startswith("s,L_plus,L_minus\n")
    assert err == "note: reference is not integrable; curves are truncation sensitive\n"
    _, _, err = run(
        capsys, "lorenz", "--state", "fock:1", "--ref", "vacuum", "--grid", "N=60"
    )
    assert err == ""


def test_two_mode_negative_temperature_reference(capsys):
    # a tensor reference renders its negative thermal parts as references
    code, out, _ = run(
        capsys, "compare", "tensor(fock:1, vacuum)", "tensor(vacuum, vacuum)",
        "--ref", "tensor(thermal(nbar=-1), thermal(nbar=-1))", "--grid", "N=16",
    )
    assert code == 0 and record_of(out)["outcome"] == "incomparable"
    code, _, err = run(
        capsys, "lorenz", "--state", "tensor(fock:1, vacuum)",
        "--ref", "tensor(thermal(nbar=-1), vacuum)", "--grid", "N=16",
    )
    assert code == 0
    assert err == "note: reference is not integrable; curves are truncation sensitive\n"


def test_csv_round_trip_verdict(tmp_path, capsys, half_grid):
    f = states.render("fock:4", half_grid)
    g = states.render("lossy(eta=0.7,fock:1)", half_grid)
    direct = compare(f, g).outcome
    fa, fb = tmp_path / "f.csv", tmp_path / "g.csv"
    run(capsys, "lorenz", "--state", "fock:4", "--points", "4000", "--out", str(fa))
    run(capsys, "lorenz", "--state", "lossy(eta=0.7,fock:1)", "--points", "4000",
        "--out", str(fb))
    reloaded = compare_curve_pairs(load_curves_csv(fa), load_curves_csv(fb)).outcome
    assert reloaded == direct


def test_csv_round_trip_verdict_relative(tmp_path, capsys, half_grid, vacuum_ref):
    f = states.render("fock:3", half_grid)
    g = states.render("fock:2", half_grid)
    direct = compare(f, g, vacuum_ref).outcome
    fa, fb = tmp_path / "f.csv", tmp_path / "g.csv"
    for spec, path in (("fock:3", fa), ("fock:2", fb)):
        run(capsys, "lorenz", "--state", spec, "--ref", "vacuum",
            "--points", "4000", "--out", str(path))
    reloaded = compare_curve_pairs(load_curves_csv(fa), load_curves_csv(fb)).outcome
    assert reloaded == direct


def test_svg_deterministic_no_timestamp(tmp_path, capsys):
    svg1, svg2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
    run(capsys, "lorenz", "--state", "fock:1", "--out", str(tmp_path / "c.csv"),
        "--svg", str(svg1))
    run(capsys, "lorenz", "--state", "fock:1", "--out", str(tmp_path / "d.csv"),
        "--svg", str(svg2))
    body = svg1.read_text()
    assert body == svg2.read_text()
    assert "<svg" in body and "polyline" in body
    assert "date" not in body.lower()


def test_scan_cli(capsys):
    code, out, _ = run(
        capsys,
        "scan", "fock:1", "fock:0", "--bracket", "0.1:2", "--resolution", "0.05",
    )
    assert code == 0
    rec = record_of(out)
    assert abs(float(rec["midpoint"]) - 0.64) < 0.05
    # the sweep stops at the first flip without moving a bit of the result
    assert out == (
        "parameter=nbar\n"
        "lower=0.6277777777777778\n"
        "upper=0.6541666666666667\n"
        "midpoint=0.6409722222222223\n"
        "verdict_lower=majorizes\n"
        "verdict_upper=incomparable\n"
    )


def test_scan_cli_on_two_modes(capsys):
    # each verdict is taken against one thermal per mode; on the same
    # per-axis grid the flip lies where the one-mode scan finds it
    code, out, _ = run(
        capsys, "scan", "tensor(fock:1, vacuum)", "tensor(vacuum, vacuum)",
        "--bracket", "0.1:2", "--grid", "N=16",
    )
    assert code == 0
    rec = record_of(out)
    lower, upper = float(rec["lower"]), float(rec["upper"])
    assert 0 < upper - lower <= 0.01
    assert (rec["verdict_lower"], rec["verdict_upper"]) == ("majorizes", "incomparable")
    code, out, _ = run(
        capsys, "scan", "fock:1", "vacuum", "--bracket", "0.1:2", "--grid", "L=5,N=16"
    )
    one = record_of(out)
    assert code == 0 and float(one["lower"]) < upper and lower < float(one["upper"])

def test_scan_no_sign_change_exit(capsys):
    code, _, err = run(
        capsys, "scan", "fock:1", "fock:1", "--bracket", "0.1:2",
        "--resolution", "0.1",
    )
    assert code == 4
    assert "sign change" in err


def test_monotone_table2(capsys):
    code, out, _ = run(
        capsys,
        "monotone", "--state", "fock:4", "--which", "nv,purity,max,min",
        "--hbar", "one",
    )
    assert code == 0
    rec = {k: float(v) for k, v in record_of(out).items()}
    assert rec["nv"] == pytest.approx(0.596, abs=5e-3)
    assert rec["purity"] == pytest.approx(1.000, abs=5e-3)
    assert rec["max"] == pytest.approx(0.318, abs=5e-3)
    assert rec["min"] == pytest.approx(0.129, abs=5e-3)


@pytest.mark.parametrize(
    "state, lines",
    [
        ("fock:4", "nv=0.5957002575\npurity=1\nmax=0.3171650142\nmin=0.1292094736\n"),
        (
            "lossy(eta=0.7,fock:1)",
            "nv=0.05207457207\npurity=0.58\nmax=0.1231967604\nmin=0.1270948528\n",
        ),
    ],
)
def test_monotone_table2_lines(capsys, state, lines):
    # the printed digits of Table 2, which the cell sums gave before the
    # octant sums replaced them
    code, out, _ = run(
        capsys,
        "monotone", "--state", state, "--which", "nv,purity,max,min",
        "--hbar", "one",
    )
    assert code == 0 and out == lines


def test_monotone_min_of_a_nonnegative_state_prints_plus_zero(capsys):
    code, out, _ = run(capsys, "monotone", "--state", "vacuum", "--which", "min")
    assert code == 0 and out == "min=0\n"


def test_monotone_trivial_nv(capsys):
    code, out, _ = run(capsys, "monotone", "--state", "fock:0", "--which", "nv")
    assert code == 0
    assert float(record_of(out)["nv"]) == pytest.approx(0.0, abs=1e-12)


def test_monotone_divergence_defaults_to_vacuum(capsys):
    code, out, _ = run(
        capsys, "monotone", "--state", "fock:1", "--which", "divergence:2"
    )
    assert code == 0
    assert "divergence_2" in record_of(out)


def test_monotone_divergence_defaults_to_vacuum_on_every_mode(capsys):
    argv = ("monotone", "--state", "tensor(fock:1, fock:1)", "--which", "divergence:2",
            "--grid", "N=16")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "divergence_2=3.216307304\n"
    assert run(capsys, *argv, "--ref", "tensor(vacuum, vacuum)") == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["lorenz", "--state", "tensor(fock:1, fock:1)", "--ref", "vacuum"],
        ["compare", "tensor(fock:1, fock:1)", "tensor(vacuum, vacuum)",
         "--ref", "thermal(nbar=1)"],
    ],
)
def test_reference_of_the_wrong_mode_count_is_named(capsys, argv):
    code, _, err = run(capsys, *argv, "--grid", "N=16")
    ref = argv[argv.index("--ref") + 1]
    assert code == 2
    assert err == f"error: reference {ref} has 1 mode(s), the states 2\n"

def test_apply_channel_round_trip(tmp_path, capsys):
    out_file = tmp_path / "state.grid"
    code, out, _ = run(
        capsys,
        "apply", "--channel", "plc:eta=0.7", "--state", "fock:1",
        "--out", str(out_file), "--grid", "L=7,N=350",
    )
    assert code == 0
    rec = record_of(out)
    assert float(rec["normalization_defect"]) < 1e-3
    assert rec["stochasticity"] == "attenuating_with_fixed_point"
    g = read_grid_file(out_file)
    target = states.render("lossy(eta=0.7,fock:1)", GridSpec(1, 7.0, 350))
    assert np.abs(g.values - target.values).max() < 1e-3


def test_apply_dephase_channel(tmp_path, capsys):
    out_file = tmp_path / "d.grid"
    code, out, _ = run(
        capsys,
        "apply", "--channel", "dephase:gamma=10", "--state", "fock:1",
        "--out", str(out_file), "--grid", "L=7,N=350",
    )
    assert code == 0
    g = read_grid_file(out_file)
    assert g.total_integral == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize(
    "channel, spec, stochasticity",
    [
        ("rot:theta=0.3", channels.rotation_channel(0.3), "doubly_stochastic"),
        ("pconj:kappa=1.5", channels.phase_conjugation_channel(1.5),
         "semidoubly_stochastic"),
    ],
    ids=["rot", "pconj"],
)
def test_apply_named_channel(tmp_path, capsys, channel, spec, stochasticity):
    # the file holds the library channel's output, byte for byte
    out_file, want_file = tmp_path / "c.grid", tmp_path / "w.grid"
    code, out, _ = run(
        capsys,
        "apply", "--channel", channel, "--state", "cat(alpha=1)",
        "--out", str(out_file), "--grid", "N=60",
    )
    assert code == 0
    assert record_of(out)["stochasticity"] == stochasticity
    f = states.render("cat(alpha=1)", GridSpec(points_per_axis=60))
    write_grid_file(want_file, channels.apply_gaussian(spec, f))
    assert out_file.read_bytes() == want_file.read_bytes()


def test_parse_channel_grammar():
    # a channel maps a state on a grid to the output of its kernel, bitwise
    grid = GridSpec(1, 7.0, 64)
    cat = states.parse_state("cat(alpha=1)")
    ch = parse_channel("gauss:X=[1 0;0 1],Y=[0 0;0 0],delta=[0.5 0]")
    shift = channels.GaussianChannelSpec(np.eye(2), np.zeros((2, 2)), [0.5, 0.0])
    want = channels.apply_gaussian(shift, states.render(cat, grid))
    assert ch.apply(cat, grid).values.tobytes() == want.values.tobytes()
    assert ch.notes == ("stochasticity=doubly_stochastic",)
    ch = parse_channel("dephase:gamma=0.25")
    want = channels.apply_dephasing(0.25, states.render(cat, grid))
    assert ch.apply(cat, grid).values.tobytes() == want.values.tobytes()
    assert ch.notes == ()
    with pytest.raises(ParseError):
        parse_channel("teleport:fidelity=1")
    with pytest.raises(ParseError):
        parse_channel("plc:transmittance=0.7")


@pytest.mark.parametrize(
    "channel",
    [
        "dephase:gamma=0.5,foo=1",
        "plc:eta=0.7,gain=2",
        "gauss:X=[1 0;0 1],Y=[0 0;0 0],Z=[1]",
    ],
    ids=["dephase", "plc", "gauss"],
)
def test_channel_refuses_unknown_parameter(tmp_path, capsys, channel):
    # like a state function's unknown argument, a parse error that names it
    name = channel.rsplit(",", 1)[1].split("=")[0]
    with pytest.raises(ParseError, match=f"unknown parameter {name}="):
        parse_channel(channel)
    out_file = tmp_path / "x.grid"
    code, out, err = run(
        capsys,
        "apply", "--channel", channel, "--state", "fock:1",
        "--grid", "N=60", "--out", str(out_file),
    )
    assert code == 3 and f"unknown parameter {name}=" in err and out == ""
    assert not out_file.exists()


def test_apply_dephase_of_rotation_invariant_state_is_the_state(tmp_path, capsys):
    # dephasing leaves a rotation-invariant state as it is: the file is the
    # state's own, byte for byte
    out_file, want_file = tmp_path / "d.grid", tmp_path / "f.grid"
    code, out, _ = run(
        capsys,
        "apply", "--channel", "dephase:gamma=0.5", "--state", "fock:1",
        "--out", str(out_file),
    )
    assert code == 0
    write_grid_file(want_file, states.render("fock:1"))
    assert out_file.read_bytes() == want_file.read_bytes()


def test_apply_dephase_refuses_two_modes(tmp_path, capsys):
    out_file = tmp_path / "x.grid"
    code, out, err = run(
        capsys,
        "apply", "--channel", "dephase:gamma=0.5", "--state", "tensor(vacuum, vacuum)",
        "--out", str(out_file),
    )
    assert code == 3 and "dephase needs a one-mode state" in err
    assert not out_file.exists()


def test_dvec_cli(capsys):
    code, out, _ = run(capsys, "dvec", "compare", "1.2,-0.2", "0.9,0.1")
    assert code == 0
    # the record that compare prints: eps = 0 and a witness for majorizes
    assert out.splitlines() == [
        "1.2,-0.2 vs 0.9,0.1: majorizes (s*=1, side=positive, gap=0.3)",
        "outcome=majorizes",
        "eps_cmp=0.0",
        "relative=",
        "witness_s=1.0",
        "witness_side=positive",
        "witness_gap=0.29999999999999993",
    ]
    code, out, _ = run(
        capsys, "dvec", "compare", "1,0", "0.5,0.5", "--q", "0.5,0.5", "--exact"
    )
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "majorizes"
    assert rec["relative"] == "0.5,0.5"
    assert (rec["witness_s"], rec["witness_side"], rec["witness_gap"]) == (
        "0.5", "positive", "0.5"
    )


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "compare", "fock:4", "nonsense(")
    assert code == 3
    assert "error" in err
    # a literal beyond the float range would parse as inf and render NaN cells
    for spec in ("cat(alpha=1e999)", "on(a=1e999,n=1)"):
        code, out, err = run(capsys, "compare", spec, "vacuum", "--grid", "N=60")
        assert code == 3 and "not finite" in err and out == ""
    # a finite amplitude whose |a|^2 overflows is rejected before rendering
    code, out, err = run(capsys, "compare", "on(a=1e200,n=1)", "vacuum", "--grid", "N=60")
    assert code == 3 and "finite |a|^2" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "fock:171", "vacuum", "--grid", "N=60", "--rep", "husimi"],
        ["compare", "on(a=1,n=200)", "vacuum", "--grid", "N=60"],
        ["monotone", "--state", "fock:170", "--rep", "husimi", "--grid", "N=60"],
        ["monotone", "--state", "fock:200", "--grid", "L=20,N=400"],
    ],
    ids=["factorial", "on-factorial", "inf-cells", "nan-cells"],
)
def test_exit_code_overflowing_render(capsys, argv):
    # a closed form beyond the float range is a numeric failure, not output
    code, out, err = run(capsys, *argv)
    assert code == 4 and ("not finite" in err or "overflows" in err)
    assert out == "" and "L=" in err


def test_exit_code_infinite_reference(capsys):
    code, out, err = run(
        capsys, "compare", "fock:1", "fock:2", "--ref", "thermal(nbar=-0.6)"
    )
    assert code == 2 and "must be finite" in err and out == ""
    code, out, _ = run(
        capsys, "compare", "fock:1", "fock:2", "--ref", "thermal(nbar=-2)", "--grid", "N=60"
    )
    assert code == 0 and "outcome=" in out


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "lorenz", "--state", "fock:1", "--grid", "L=7,K=3")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["lorenz", "--state", "fock:1", "--tol", "1e-4"],
        ["monotone", "--state", "fock:1", "--tol", "1e-4"],
        ["apply", "--channel", "plc:eta=0.7", "--state", "fock:1",
         "--out", os.devnull, "--tol", "1e-4"],
        # the kernels are Gaussian Wigner kernels, wrong on a Husimi function
        ["apply", "--channel", "plc:eta=0.7", "--state", "fock:1",
         "--out", os.devnull, "--rep", "husimi"],
        ["scan", "fock:1", "fock:0", "--bracket", "0.1:2", "--family", "thermal"],
    ],
    ids=["lorenz-tol", "monotone-tol", "apply-tol", "apply-rep", "scan-family"],
)
def test_flag_without_effect_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "unrecognized arguments" in err


def test_readme_quick_start(tmp_path, monkeypatch, capsys):
    # every qmaj line of the README's Quick start, with its commented outcome
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("qmaj ")]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)
        want = re.search(r"# -> (\w+)", line)
        if want:
            assert f"outcome={want.group(1)}" in out.splitlines(), line


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "fock:1", "fock:2", "--grid", "L=abc"],
        ["compare", "fock:1", "fock:2", "--grid", "N=7.5"],
        ["scan", "fock:1", "fock:0", "--bracket", "0.5"],
        ["scan", "fock:1", "fock:0", "--bracket", "low:2"],
        ["scan", "fock:1", "vacuum", "--bracket", "0.1:3.5", "--grid", "L=7,N=60",
         "--resolution", "0"],
        ["monotone", "--state", "fock:1", "--which", "renyi:x"],
        ["lorenz", "--state", "fock:1", "--points", "-1"],
        ["compare", "fock:1", "fock:2", "--grid", "L=nan,N=60"],
        ["compare", "fock:1", "fock:2", "--grid", "L=inf,N=60"],
        ["compare", "fock:1", "fock:1", "--grid", "N=60", "--tol", "nan"],
        ["compare", "fock:1", "fock:1", "--grid", "N=60", "--tol", "-1"],
        ["compare", "fock:1", "fock:2", "--grid", "N=60", "--tol", "inf"],
        ["compare", "fock:1", "fock:2", "--grid", "L=1e300,N=60"],
        ["monotone", "--state", "fock:1", "--grid", "N=60", "--which", "renyi:nan"],
        ["monotone", "--state", "fock:1", "--grid", "N=60", "--which", "norm:nan"],
        ["monotone", "--state", "fock:1", "--grid", "N=60", "--which", "divergence:nan"],
        ["monotone", "--state", "fock:1", "--grid", "N=60", "--which", "norm:inf"],
        ["monotone", "--state", "fock:1", "--grid", "N=60", "--which", "tsallis:inf"],
        ["monotone", "--state", "fock:1", "--grid", "N=60", "--which", "renyi:inf"],
        ["apply", "--channel", "dephase:gamma=nan", "--state", "fock:1",
         "--grid", "N=60", "--out", os.devnull],
        ["apply", "--channel", "dephase:gamma=inf", "--state", "fock:1",
         "--grid", "N=60", "--out", os.devnull],
        ["dvec", "compare", "nan,1", "1,0"],
        ["dvec", "compare", "1e999,-1e999", "1,0"],
        ["dvec", "compare", "1,0", "0,1", "--q", "1,nan"],
        ["dvec", "compare", "1.7e308,-1.7e308,1.7e308,-1.7e308", "0,0,0,0"],
        ["lorenz", "--state", "tensor(fock:1, fock:1)", "--ref", "vacuum",
         "--grid", "N=16"],
        ["compare", "tensor(fock:1, fock:1)", "tensor(vacuum, vacuum)",
         "--ref", "thermal(nbar=1)", "--grid", "N=16"],
    ],
    ids=["grid-L", "grid-N", "bracket-colon", "bracket-number", "resolution",
         "alpha", "points", "grid-L-nan", "grid-L-inf", "tol-nan", "tol-negative",
         "tol-inf", "grid-L-overflow", "alpha-renyi-nan", "alpha-norm-nan",
         "alpha-divergence-nan", "alpha-norm-inf", "alpha-tsallis-inf",
         "alpha-renyi-inf", "dephase-gamma-nan", "dephase-gamma-inf", "dvec-nan",
         "dvec-inf", "dvec-q-nan", "dvec-part-overflow", "lorenz-ref-modes",
         "compare-ref-modes"],
)
def test_exit_code_malformed_flag(argv):
    src = str(Path(qmaj.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qmaj.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr and "Traceback" not in proc.stderr


def test_import_loads_no_scipy():
    # scipy loads only where a channel interpolates: neither importing nor
    # rendering a cubic phase state, alone or in a tensor product, loads it,
    # nor dephasing a rotation-invariant state, which returns it as it is
    src = str(Path(qmaj.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, os, sys, qmaj, qmaj.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print(loaded())\n"
        "for spec in ('cubic(g=0.02, s=0.1)', 'tensor(cubic(g=0.02, s=0.1), vacuum)'):\n"
        "    qmaj.render(spec).values\n"
        "    print(loaded())\n"
        "argv = ['apply', '--channel', 'dephase:gamma=0.5', '--state', 'fock:1',\n"
        "        '--out', os.devnull]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert qmaj.cli.main(argv) == 0\n"
        "print(loaded())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", "[]", "[]", ""]


def test_import_without_mallopt():
    # where the C library has no mallopt (or cannot be loaded), importing
    # qmaj keeps the allocator's policy and everything else works as before
    src = str(Path(qmaj.__file__).resolve().parents[1])
    verdict = (
        "import qmaj\n"
        "print(qmaj.compare(qmaj.render('fock:1'), qmaj.render('fock:2')))"
    )
    patches = (
        "",
        "def cdll(*args, **kwargs):\n"
        "    raise OSError('no C library')\n",
        "def cdll(*args, **kwargs):\n"
        "    return object()\n",
    )
    outputs = []
    for patch in patches:
        if patch:
            patch = "import ctypes\n" + patch + "ctypes.CDLL = cdll\n"
        proc = subprocess.run(
            [sys.executable, "-c", patch + verdict],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].startswith("incomparable")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize(
    "argv",
    [["cubic(g=1e6, s=0.1)", "--grid", "N=64"], ["cubic(g=0.02, s=1e-9)"]],
    ids=["g=1e6", "s=1e-9"],
)
def test_exit_code_over_budget_cubic(capsys, argv):
    # a cubic phase whose reach needs a wavefunction lattice beyond the
    # transform's budget is a numeric failure, not an aliased value
    code, out, err = run(capsys, "monotone", "--which", "nv", "--state", *argv)
    assert code == 4 and "lattice" in err and out == ""


def test_exit_code_normalization(tmp_path, capsys):
    # leakage: displacement beyond the window is a numeric failure
    code, _, err = run(
        capsys,
        "apply", "--channel", "gauss:X=[1 0;0 1],Y=[0 0;0 0],delta=[30 0]",
        "--state", "fock:0", "--out", str(tmp_path / "x.grid"),
        "--grid", "L=7,N=350",
    )
    assert code == 4
    # non-finite channel data is rejected before anything is written
    for channel in ("gauss:X=[nan 0;0 1],Y=[0 0;0 0]", "amp:gain=1e999"):
        out_file = tmp_path / "nan.grid"
        code, out, err = run(
            capsys,
            "apply", "--channel", channel, "--state", "fock:1",
            "--out", str(out_file), "--grid", "N=60",
        )
        assert code == 4 and "must be finite" in err
        assert not out_file.exists()


@pytest.mark.parametrize(
    "channel, defect",
    [
        # coarse cells: enlarging the window alone makes this defect worse
        ("plc:eta=0.7", "0.00198"),
        ("gauss:X=[1 0;0 1],Y=[0 0;0 0],delta=[30 0]", "1"),
    ],
    ids=["coarse", "displaced"],
)
def test_leakage_names_both_causes(tmp_path, capsys, channel, defect):
    out_file = tmp_path / "x.grid"
    code, out, err = run(
        capsys,
        "apply", "--channel", channel, "--state", "fock:1",
        "--out", str(out_file), "--grid", "N=60",
    )
    assert code == 4 and out == "" and not out_file.exists()
    assert f"mass defect is {defect} (tolerance 0.001)" in err
    assert "mass left the window (enlarge L)" in err
    assert "cells are too coarse for the kernel's resample (raise N)" in err


def test_leakage_from_coarse_cells_clears_with_finer_cells(tmp_path, capsys):
    out_file = tmp_path / "x.grid"
    for grid in ("L=4,N=60", "N=120"):
        code, _, _ = run(
            capsys,
            "apply", "--channel", "plc:eta=0.7", "--state", "fock:1",
            "--out", str(out_file), "--grid", grid,
        )
        assert code == 0


def test_grid_file_round_trip(tmp_path, half_grid):
    f = states.render("fock:1", half_grid)
    path = tmp_path / "w.grid"
    write_grid_file(path, f)
    g = read_grid_file(path)
    assert g.grid == half_grid
    np.testing.assert_array_equal(g.values, f.values)


def test_grid_file_lines(tmp_path):
    # the header, then one shortest round-trip repr per cell
    f = states.render("lossy(eta=0.7, fock:1)", GridSpec(1, 7.0, 64))
    path = tmp_path / "w.grid"
    write_grid_file(path, f)
    lines = path.read_text().split("\n")
    assert lines[0] == "# qmaj-grid modes=1 half_width=7.0 points=64 hbar=half"
    assert lines[1:] == [repr(float(v)) for v in f.values] + [""]
    # an octant writes one repr per orbit, placed at each of its cells
    assert f.fold is not None
    write_grid_file(tmp_path / "v.grid", SampledDistribution(f.grid, f.values))
    assert (tmp_path / "v.grid").read_bytes() == path.read_bytes()


def _signed_zeros() -> SampledDistribution:
    # repeated values, 0.0 and -0.0, and two values 1 ulp apart
    values = [0.0, -0.0, 0.5, 0.5, -0.0, 0.1, 0.1, 0.0,
              1e-300, -1e-300, 0.1 + 0.2, 0.3, 0.0, -0.0, 0.25, 0.25]
    return SampledDistribution(GridSpec(1, 1.0, 4), values)


def _fock1_through(channel: str):
    return lambda: parse_channel(channel).apply(
        states.parse_state("fock:1"), GridSpec(1, 7.0, 350)
    )


@pytest.mark.parametrize(
    "make",
    [
        _signed_zeros,
        _fock1_through("plc:eta=0.7"),
        _fock1_through("amp:gain=2"),
        _fock1_through("dephase:gamma=0.5"),
        lambda: states.render("mix(0.75:cat(alpha=2), 0.25:fock:7)", GridSpec(1, 7.0, 350)),
    ],
    ids=["signed-zeros", "plc", "amp", "dephase", "cat-mix"],
)
def test_grid_file_formats_every_cell_exactly(tmp_path, make):
    # each distinct value is formatted once, grouped by its bits: a file
    # byte for byte one repr per cell, -0.0 apart from 0.0
    f = make()
    path = tmp_path / "w.grid"
    write_grid_file(path, f)
    header = (
        f"# qmaj-grid modes=1 half_width={f.grid.half_width!r} "
        f"points={f.grid.points_per_axis} hbar=half"
    )
    cells = "\n".join(repr(float(v)) for v in f.values)
    assert path.read_text() == f"{header}\n{cells}\n"


@pytest.mark.parametrize("channel", ["plc:eta=0.7", "amp:gain=2", "dephase:gamma=0.5"])
def test_apply_keeps_cells_of_octant_unbuilt(tmp_path, channel):
    # what cmd_apply does after the channel reads the octant only
    fock1 = states.parse_state("fock:1")
    out = parse_channel(channel).apply(fock1, GridSpec(1, 7.0, 350))
    report = truncation_report(out)
    write_grid_file(tmp_path / "out.grid", out)
    assert "values" not in vars(out)
    want = truncation_report(SampledDistribution(out.grid, out.values))
    assert report.boundary_max == want.boundary_max


@pytest.mark.parametrize(
    "spec", ["lossy(eta=0.7, fock:1)", "cat(alpha=2)", "coherent(alpha=1.5i)", "coherent(alpha=1)"]
)
def test_grid_file_of_a_fold_is_that_of_its_values(tmp_path, spec):
    # an octant, a quadrant and a half x > 0 join each pair of mirrored rows
    # once, a half p > 0 every row; each file is byte for byte the values'
    f = states.render(spec, GridSpec(1, 7.0, 64))
    assert f.fold is not None
    write_grid_file(tmp_path / "fold.grid", f)
    write_grid_file(tmp_path / "cells.grid", SampledDistribution(f.grid, f.values))
    assert (tmp_path / "fold.grid").read_bytes() == (tmp_path / "cells.grid").read_bytes()


def test_main_reuses_its_parser(capsys):
    # the parser is built once per process; an option of one request does
    # not carry over to the next
    argv = ["compare", "fock:3", "fock:2", "--grid", "N=120"]
    code, first, _ = run(capsys, *argv, "--ref", "vacuum")
    assert code == 0 and record_of(first)["relative"] == "vacuum"
    code, second, _ = run(capsys, *argv)
    assert code == 0 and record_of(second)["relative"] == ""
    assert run(capsys, *argv)[1] == second


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--channel", "plc:eta=0.7,eta=0.2", "--grid", "N=60"], 3, "parameter eta= twice"),
        (["--channel", "plc:eta=0.7", "--grid", "N=60,N=80"], 2, "repeated --grid key 'N'"),
    ],
    ids=["channel", "grid"],
)
def test_apply_refuses_repeated_keys(tmp_path, capsys, argv, code, message):
    # like an unknown key: the channel's a parse error, the grid's a
    # configuration error, and no file is written
    out_file = tmp_path / "x.grid"
    got, out, err = run(capsys, "apply", *argv, "--state", "fock:1", "--out", str(out_file))
    assert got == code and message in err and out == ""
    assert not out_file.exists()
    code, _, err = run(capsys, "compare", "cat(alpha=1, alpha=2)", "vacuum")
    assert code == 3 and "alpha= twice" in err
