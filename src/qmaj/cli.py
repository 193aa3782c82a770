"""Command-line front door: lorenz, compare, scan, monotone, apply, dvec.

Outputs are deterministic: CSV floats use shortest round-trip decimals and
the SVG writer emits a fixed viewport with no timestamps.  Exit codes:
0 success, 2 usage/configuration, 3 specification parse error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import channels, monotones, states
from .compare import compare, scan_threshold
from .errors import (
    ConfigError,
    ParseError,
    QmajError,
    SpecValidationError,
)
from .grids import (
    HBAR_HALF,
    HBAR_ONE,
    GridSpec,
    SampledDistribution,
    default_grid,
    truncation_report,
)
from .rearrange import LorenzCurve, curves, resample_pair

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4


# -- small parsers ------------------------------------------------------------

def _parse_grid_flag(text: str | None, modes: int, hbar: str) -> GridSpec:
    base = default_grid(modes=modes, hbar=hbar)
    if not text:
        return base
    fields = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise ConfigError(f"bad --grid entry {part!r}, expected k=v")
        fields[key.strip()] = value.strip()
    known = {"L", "N"}
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown --grid key {unknown.pop()!r}")
    try:
        L = float(fields.get("L", base.half_width))
        N = int(fields.get("N", base.points_per_axis))
    except ValueError as exc:
        raise ConfigError(f"bad --grid value: {exc}") from None
    return GridSpec(modes=modes, half_width=L, points_per_axis=N, hbar=hbar)


def _parse_bracket(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ConfigError(f"bad --bracket {text!r}, expected lo:hi") from None


def _parse_matrix(text: str) -> np.ndarray:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"matrix literal must be bracketed, got {text!r}")
    rows = [
        [float(tok) for tok in row.split()]
        for row in text[1:-1].split(";")
        if row.strip()
    ]
    return np.array(rows)


class _Channel(NamedTuple):
    """A parsed channel: how to apply it, and the lines it prints."""

    apply: Callable[[SampledDistribution], SampledDistribution]
    notes: tuple[str, ...] = ()


def _gaussian(spec: channels.GaussianChannelSpec) -> _Channel:
    stochasticity = channels.classify_gaussian(spec).value
    return _Channel(
        partial(channels.apply_gaussian, spec), (f"stochasticity={stochasticity}",)
    )


def parse_channel(text: str) -> _Channel:
    """Channel mini-grammar: plc:eta=, gauss:X=..,Y=..,delta=.., dephase:gamma=."""
    name, _, body = text.partition(":")
    name = name.strip()
    params: dict[str, str] = {}
    depth = 0
    key = ""
    buf = ""
    for ch in body + ",":
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            if buf.strip():
                k, _, v = buf.partition("=")
                params[k.strip()] = v.strip()
            buf = ""
        else:
            buf += ch
    try:
        if name == "plc":
            return _gaussian(channels.pure_loss_channel(float(params["eta"])))
        if name == "amp":
            return _gaussian(channels.amplifier_channel(float(params["gain"])))
        if name == "rot":
            return _gaussian(channels.rotation_channel(float(params["theta"])))
        if name == "pconj":
            return _gaussian(
                channels.phase_conjugation_channel(float(params["kappa"]))
            )
        if name == "dephase":
            return _Channel(partial(channels.apply_dephasing, float(params["gamma"])))
        if name == "gauss":
            x = _parse_matrix(params["X"])
            y = _parse_matrix(params["Y"])
            delta = (
                _parse_matrix(params["delta"]).ravel()
                if "delta" in params
                else None
            )
            return _gaussian(channels.GaussianChannelSpec(x, y, delta))
    except KeyError as exc:
        raise ParseError(f"channel {name!r} is missing parameter {exc}")
    except ValueError as exc:
        raise ParseError(f"bad channel parameter: {exc}")
    raise ParseError(f"unknown channel {name!r}")


# -- file formats -------------------------------------------------------------

def _curves_csv(s, l_plus, l_minus) -> str:
    lines = ["s,L_plus,L_minus"]
    lines += [
        f"{float(a)!r},{float(b)!r},{float(c)!r}"
        for a, b, c in zip(s, l_plus, l_minus)
    ]
    return "\n".join(lines) + "\n"


def write_curves_csv(path, s, l_plus, l_minus) -> None:
    Path(path).write_text(_curves_csv(s, l_plus, l_minus))


def load_curves_csv(path) -> tuple[LorenzCurve, LorenzCurve]:
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != "s,L_plus,L_minus":
        raise ConfigError(f"{path} is not a qmaj curve CSV")
    table = [row.split(",") for row in rows[1:]]
    if not table or any(len(fields) != 3 for fields in table):
        raise ConfigError(f"{path}: every curve row needs 3 columns")
    try:
        data = np.array([[float(t) for t in fields] for fields in table])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad curve value: {exc}") from None
    s, lp, lm = data[:, 0], data[:, 1], data[:, 2]
    if s[0] > 0:
        s = np.concatenate([[0.0], s])
        lp = np.concatenate([[0.0], lp])
        lm = np.concatenate([[0.0], lm])
    end = float(s[-1])
    pos = LorenzCurve(s, lp, "positive", end)
    neg = LorenzCurve(s, lm, "negative", end)
    return pos, neg


def write_grid_file(path, f: SampledDistribution) -> None:
    g = f.grid
    header = (
        f"# qmaj-grid modes={g.modes} half_width={g.half_width!r} "
        f"points={g.points_per_axis} hbar={g.hbar}"
    )
    lines = [header] + [repr(float(v)) for v in f.values]
    Path(path).write_text("\n".join(lines) + "\n")


def read_grid_file(path) -> SampledDistribution:
    rows = Path(path).read_text().strip().splitlines()
    if not rows or not rows[0].startswith("# qmaj-grid "):
        raise ConfigError(f"{path} is not a qmaj grid file")
    try:
        tokens = rows[0][len("# qmaj-grid "):].split()
        meta = dict(tok.split("=") for tok in tokens)
        grid = GridSpec(
            modes=int(meta["modes"]),
            half_width=float(meta["half_width"]),
            points_per_axis=int(meta["points"]),
            hbar=meta["hbar"],
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: grid header lacks {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: bad grid header: {exc}") from None
    try:
        values = np.array([float(v) for v in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad grid value: {exc}") from None
    return SampledDistribution(grid, values)


def write_curves_svg(path, s, l_plus, l_minus, loglog: bool = False) -> None:
    """Minimal static SVG of a curve pair: fixed viewport, no metadata."""
    width, height, margin = 800.0, 560.0, 60.0
    s = np.asarray(s, dtype=float)
    if loglog:
        keep = s > 0
        xs = np.log10(s[keep])
        series = [np.log10(np.maximum(np.abs(v[keep]), 1e-300)) for v in (l_plus, l_minus)]
        labels = ("log10 s", "log10 |L|")
    else:
        xs = s
        series = [np.asarray(l_plus, dtype=float), np.asarray(l_minus, dtype=float)]
        labels = ("cumulative measure s", "cumulative integral L")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo = min(float(v.min()) for v in series)
    y_hi = max(float(v.max()) for v in series)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def to_px(xv, yv):
        px = margin + (xv - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (yv - y_lo) / y_span * (height - 2 * margin)
        return px, py

    def polyline(vals, color):
        pts = " ".join(
            f"{px:.2f},{py:.2f}" for px, py in (to_px(a, b) for a, b in zip(xs, vals))
        )
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{margin:g}" y1="{height - margin:g}" x2="{width - margin:g}" '
        f'y2="{height - margin:g}" stroke="black"/>',
        f'<line x1="{margin:g}" y1="{margin:g}" x2="{margin:g}" '
        f'y2="{height - margin:g}" stroke="black"/>',
        polyline(series[0], "#1f77b4"),
        polyline(series[1], "#d62728"),
        f'<text x="{width / 2:g}" y="{height - margin / 4:g}" font-size="16" '
        f'text-anchor="middle">{labels[0]}</text>',
        f'<text x="{margin / 3:g}" y="{height / 2:g}" font-size="16" '
        f'text-anchor="middle" transform="rotate(-90 {margin / 3:g} {height / 2:g})">'
        f"{labels[1]}</text>",
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")


# -- subcommands --------------------------------------------------------------

def _grid_for(args, spec) -> GridSpec:
    return _parse_grid_flag(args.grid, spec.modes, args.hbar)


def _reference_for(args, grid):
    if getattr(args, "ref", None):
        return states.reference(args.ref, grid, args.rep)
    return None


def cmd_lorenz(args) -> int:
    spec = states.parse_state(args.state)
    grid = _grid_for(args, spec)
    f = states.render(spec, grid, args.rep)
    q = _reference_for(args, grid)
    pos, neg = curves(f, q)
    s_min = grid.cell_measure if args.loglog else None
    s, lp, lm = resample_pair(pos, neg, points=args.points, s_min=s_min)
    if args.out:
        write_curves_csv(args.out, s, lp, lm)
    else:
        sys.stdout.write(_curves_csv(s, lp, lm))
    if args.svg:
        write_curves_svg(args.svg, s, lp, lm, loglog=args.loglog)
    if pos.truncation_sensitive:
        sys.stderr.write(
            "note: reference is not integrable; curves are truncation sensitive\n"
        )
    return 0


def cmd_compare(args) -> int:
    spec_a = states.parse_state(args.state_a)
    spec_b = states.parse_state(args.state_b)
    if spec_a.modes != spec_b.modes:
        raise ConfigError("states act on different mode counts")
    grid = _grid_for(args, spec_a)
    f = states.render(spec_a, grid, args.rep)
    g = states.render(spec_b, grid, args.rep)
    q = _reference_for(args, grid)
    verdict = compare(f, g, q, eps_cmp=args.tol)
    print(f"{args.state_a} vs {args.state_b}: {verdict}")
    record = {
        "outcome": verdict.outcome.value,
        "eps_cmp": args.tol,
        "relative": args.ref or "",
    }
    if verdict.witness is not None:
        record.update(
            witness_s=verdict.witness.s,
            witness_side=verdict.witness.side,
            witness_gap=verdict.witness.gap,
        )
    if verdict.witness_reverse is not None:
        record.update(
            reverse_s=verdict.witness_reverse.s,
            reverse_side=verdict.witness_reverse.side,
            reverse_gap=verdict.witness_reverse.gap,
        )
    for key, value in record.items():
        print(f"{key}={value}")
    return 0


def cmd_scan(args) -> int:
    if args.family != "thermal":
        raise ConfigError(f"unknown reference family {args.family!r}")
    bracket = _parse_bracket(args.bracket)
    spec_a = states.parse_state(args.state_a)
    spec_b = states.parse_state(args.state_b)
    grid = _grid_for(args, spec_a)
    f = states.render(spec_a, grid, args.rep)
    g = states.render(spec_b, grid, args.rep)
    result = scan_threshold(
        f,
        g,
        states.thermal_reference_family(grid, args.rep),
        bracket,
        resolution=args.resolution,
        eps_cmp=args.tol,
    )
    print(f"parameter={result.parameter}")
    print(f"lower={result.lower!r}")
    print(f"upper={result.upper!r}")
    print(f"midpoint={result.midpoint!r}")
    print(f"verdict_lower={result.verdict_lower.value}")
    print(f"verdict_upper={result.verdict_upper.value}")
    return 0


def cmd_monotone(args) -> int:
    spec = states.parse_state(args.state)
    grid = _grid_for(args, spec)
    f = states.render(spec, grid, args.rep)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    q = _reference_for(args, grid)
    if q is None and any(w.startswith("divergence") for w in which):
        q = states.reference(states.VACUUM, grid, args.rep)
    report = monotones.monotone_report(f, which, q)
    for line in report.lines():
        print(line)
    if args.csv:
        rows = ["name,value"] + [
            f"{k},{v!r}" for k, v in report.entries.items()
        ]
        Path(args.csv).write_text("\n".join(rows) + "\n")
    return 0


def cmd_apply(args) -> int:
    spec = states.parse_state(args.state)
    grid = _grid_for(args, spec)
    f = states.render(spec, grid, args.rep)
    channel = parse_channel(args.channel)
    out = channel.apply(f)
    for line in channel.notes:
        print(line)
    report = truncation_report(out)
    print(f"normalization_defect={report.normalization_defect!r}")
    print(f"boundary_max={report.boundary_max!r}")
    write_grid_file(args.out, out)
    return 0


def cmd_dvec(args) -> int:
    from .discrete import QuasiVector, vec_compare

    if args.op != "compare":
        raise ConfigError(f"unknown dvec operation {args.op!r}")
    f = QuasiVector.from_text(args.f, exact=args.exact)
    g = QuasiVector.from_text(args.g, exact=args.exact)
    q = QuasiVector.from_text(args.q, exact=args.exact).entries if args.q else None
    verdict = vec_compare(f, g, q)
    print(f"{args.f} vs {args.g}: {verdict}")
    print(f"outcome={verdict.outcome.value}")
    return 0


# -- wiring -------------------------------------------------------------------

def _add_common(sub, rep_default="wigner"):
    sub.add_argument("--grid", help="grid override, e.g. L=7,N=700")
    sub.add_argument("--hbar", choices=[HBAR_HALF, HBAR_ONE], default=HBAR_HALF)
    sub.add_argument("--rep", choices=["wigner", "husimi"], default=rep_default)
    sub.add_argument("--tol", type=float, default=1e-4,
                     help="comparison tolerance in curve units")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaj",
        description="Majorization analysis of quasiprobability distributions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("lorenz", help="export Lorenz curves as CSV/SVG")
    p.add_argument("--state", required=True)
    p.add_argument("--ref", help="reference state for relative curves")
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--loglog", action="store_true")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.add_argument("--svg", help="optional SVG path")
    _add_common(p)
    p.set_defaults(func=cmd_lorenz)

    p = subs.add_parser("compare", help="majorization verdict for two states")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--ref", help="reference state for relative majorization")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("scan", help="bisect a reference family for a verdict flip")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--family", default="thermal")
    p.add_argument("--bracket", required=True, help="lo:hi parameter range")
    p.add_argument("--resolution", type=float, default=0.01)
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = subs.add_parser("monotone", help="evaluate Schur-convex monotones")
    p.add_argument("--state", required=True)
    p.add_argument("--which", default="nv,purity,max,min")
    p.add_argument("--ref", help="reference for divergences (default vacuum)")
    p.add_argument("--csv", help="optional CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_monotone)

    p = subs.add_parser("apply", help="apply a channel kernel to a state")
    p.add_argument("--channel", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True, help="output grid file")
    _add_common(p)
    p.set_defaults(func=cmd_apply)

    p = subs.add_parser("dvec", help="exact discrete vector comparison")
    p.add_argument("op", choices=["compare"])
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--q", help="positive reference vector")
    p.add_argument("--exact", action="store_true", help="rational arithmetic")
    p.set_defaults(func=cmd_dvec)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QmajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
