from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmaj
from qmaj import states
from qmaj.cli import (
    load_curves_csv,
    main,
    parse_channel,
    read_grid_file,
    write_grid_file,
)
from qmaj.compare import compare, compare_curve_pairs
from qmaj.errors import ParseError
from qmaj.grids import GridSpec


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


def test_parse_channel_grammar():
    ch = parse_channel("gauss:X=[1 0;0 1],Y=[0 0;0 0],delta=[0.5 0]")
    assert ch.delta[0] == 0.5
    kind, gamma = parse_channel("dephase:gamma=0.25")
    assert kind == "dephase" and gamma == 0.25
    with pytest.raises(ParseError):
        parse_channel("teleport:fidelity=1")
    with pytest.raises(ParseError):
        parse_channel("plc:transmittance=0.7")


def test_dvec_cli(capsys):
    code, out, _ = run(capsys, "dvec", "compare", "1.2,-0.2", "0.9,0.1")
    assert code == 0
    assert record_of(out)["outcome"] == "majorizes"
    code, out, _ = run(
        capsys, "dvec", "compare", "1,0", "0.5,0.5", "--q", "0.5,0.5", "--exact"
    )
    assert code == 0
    assert record_of(out)["outcome"] == "majorizes"


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "compare", "fock:4", "nonsense(")
    assert code == 3
    assert "error" in err


def test_exit_code_usage(capsys):
    code, _, err = run(capsys, "lorenz", "--state", "fock:1", "--grid", "L=7,K=3")
    assert code == 2


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
    ],
    ids=["grid-L", "grid-N", "bracket-colon", "bracket-number", "resolution",
         "alpha", "points"],
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


def test_exit_code_normalization(tmp_path, capsys):
    # leakage: displacement beyond the window is a numeric failure
    code, _, err = run(
        capsys,
        "apply", "--channel", "gauss:X=[1 0;0 1],Y=[0 0;0 0],delta=[30 0]",
        "--state", "fock:0", "--out", str(tmp_path / "x.grid"),
        "--grid", "L=7,N=350",
    )
    assert code == 4


def test_grid_file_round_trip(tmp_path, half_grid):
    f = states.render("fock:1", half_grid)
    path = tmp_path / "w.grid"
    write_grid_file(path, f)
    g = read_grid_file(path)
    assert g.grid == half_grid
    np.testing.assert_array_equal(g.values, f.values)
