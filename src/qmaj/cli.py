"""Command-line front door: lorenz, compare, scan, monotone, apply, dvec.

Outputs are deterministic: CSV floats use shortest round-trip decimals and
the SVG writer emits a fixed viewport with no timestamps.  Exit codes:
0 success, 2 usage/configuration, 3 specification parse error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import channels, monotones, states
from .compare import DEFAULT_EPS_CMP, MajorizationVerdict, compare, scan_threshold
from .discrete import QuasiVector, vec_compare
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
    _restrict,
    default_grid,
    truncation_report,
)
from .rearrange import curves, resample_pair

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
        if key.strip() in fields:
            raise ConfigError(f"repeated --grid key {key.strip()!r}")
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
    """A parsed channel: its output for a state on a grid, and the lines it prints."""

    apply: Callable[[states.StateSpec, GridSpec], SampledDistribution]
    notes: tuple[str, ...] = ()


def _gaussian(spec: channels.GaussianChannelSpec) -> _Channel:
    def apply(state: states.StateSpec, grid: GridSpec) -> SampledDistribution:
        return channels.apply_gaussian(spec, states.render(state, grid))

    stochasticity = channels.classify_gaussian(spec).value
    return _Channel(apply, (f"stochasticity={stochasticity}",))


# the Gaussian channels of one parameter: name -> (parameter, constructor)
_ONE_PARAMETER_CHANNELS = {
    "plc": ("eta", channels.pure_loss_channel),
    "amp": ("gain", channels.amplifier_channel),
    "rot": ("theta", channels.rotation_channel),
    "pconj": ("kappa", channels.phase_conjugation_channel),
}


def parse_channel(text: str) -> _Channel:
    """Channel mini-grammar: plc:eta=, gauss:X=..,Y=..,delta=.., dephase:gamma=.

    ``dephase:gamma=G`` is the ``dephase(gamma=G, S)`` state of the input S,
    so a rotation-invariant S comes back as it is.  A parameter that the
    channel does not take, or one given twice, raises ParseError.
    """
    name, _, body = text.partition(":")
    name = name.strip()
    params: dict[str, str] = {}
    for item in re.split(r",(?![^\[]*\])", body):  # the commas outside [...]
        if item.strip():
            k, _, v = item.partition("=")
            if k.strip() in params:
                raise ParseError(f"channel {name!r} got parameter {k.strip()}= twice")
            params[k.strip()] = v.strip()
    try:
        if name in _ONE_PARAMETER_CHANNELS:
            param, make = _ONE_PARAMETER_CHANNELS[name]
            channel = _gaussian(make(float(params.pop(param))))
        elif name == "dephase":
            gamma = float(params.pop("gamma"))
            if not 0 < gamma < math.inf:
                raise ConfigError(f"gamma must be finite and > 0, got {gamma}")
            channel = _Channel(
                lambda state, grid: states.render(states.Dephase(gamma, state), grid)
            )
        elif name == "gauss":
            x = _parse_matrix(params.pop("X"))
            y = _parse_matrix(params.pop("Y"))
            delta = params.pop("delta", None)
            delta = None if delta is None else _parse_matrix(delta).ravel()
            channel = _gaussian(channels.GaussianChannelSpec(x, y, delta))
        else:
            raise ParseError(f"unknown channel {name!r}")
    except KeyError as exc:
        raise ParseError(f"channel {name!r} is missing parameter {exc}")
    except ValueError as exc:
        raise ParseError(f"bad channel parameter: {exc}")
    if params:
        extra = next(iter(params))
        raise ParseError(f"channel {name!r} got unknown parameter {extra}=")
    return channel


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


def write_grid_file(path, f: SampledDistribution) -> None:
    """The grid header, then one shortest round-trip repr per cell.

    Each distinct value is formatted once, with its newline: the stored
    entries (the values, or the fold) are grouped by their bit patterns,
    so 0.0 and -0.0 keep their own lines, and each cell takes the line of
    its group.  A function built from a fold places each entry's line at
    every cell of its orbit, so the file is the same as for its values.
    The lines are joined one grid row (along the first axis) at a time, so
    no text of the whole file is held; when the fold's group holds x -> -x,
    rows k and N-1-k are one text, joined once, and half of it is held.
    """
    g = f.grid
    header = (
        f"# qmaj-grid modes={g.modes} half_width={g.half_width!r} "
        f"points={g.points_per_axis} hbar={g.hbar}"
    )
    cells = f.values if f.fold is None else f.fold
    bits, line_of = np.unique(cells.view(np.uint64), return_inverse=True)
    lines = np.array([f"{x!r}\n" for x in bits.view(float).tolist()], dtype=object)
    rows = _restrict(g, line_of, f.group).reshape(g.shape)
    with open(path, "w") as out:
        out.write(f"{header}\n")
        if "x" in f.group:  # rows k and N-1-k are the same text
            top = ["".join(lines[row].tolist()) for row in rows[len(rows) // 2:]]
            out.writelines(top[::-1] + top)
        else:
            for row in rows:
                out.write("".join(lines[row.ravel()].tolist()))


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

def _render(args, *texts: str) -> tuple:
    """The grid, then each state rendered on it; the states share a mode count."""
    specs = [states.parse_state(text) for text in texts]
    if any(spec.modes != specs[0].modes for spec in specs):
        raise ConfigError("states act on different mode counts")
    grid = _parse_grid_flag(args.grid, specs[0].modes, args.hbar)
    return grid, *(states.render(spec, grid, args.rep) for spec in specs)


def _reference_for(args, grid):
    if not args.ref:
        return None
    spec = states.parse_state(args.ref)
    if spec.modes != grid.modes:
        raise ConfigError(f"reference {args.ref} has {spec.modes} mode(s), the states {grid.modes}")
    return states.reference(spec, grid, args.rep)


def cmd_lorenz(args) -> int:
    grid, f = _render(args, args.state)
    q = _reference_for(args, grid)
    pos, neg = curves(f, q)
    end = grid.total_measure if q is None else q.total_integral
    s_min = grid.cell_measure if args.loglog else None
    s, lp, lm = resample_pair(pos, neg, end, points=args.points, s_min=s_min)
    if args.out:
        write_curves_csv(args.out, s, lp, lm)
    else:
        sys.stdout.write(_curves_csv(s, lp, lm))
    if args.svg:
        write_curves_svg(args.svg, s, lp, lm, loglog=args.loglog)
    if q is not None and not q.integrable:
        sys.stderr.write(
            "note: reference is not integrable; curves are truncation sensitive\n"
        )
    return 0


def _print_verdict(a: str, b: str, verdict: MajorizationVerdict, relative) -> None:
    """The record that ``compare`` and ``dvec`` print: a header, then key=value."""
    print(f"{a} vs {b}: {verdict}")
    print(f"outcome={verdict.outcome.value}")
    print(f"eps_cmp={verdict.tolerance}")
    print(f"relative={relative or ''}")
    for name, w in (("witness", verdict.witness), ("reverse", verdict.witness_reverse)):
        if w is not None:
            print(f"{name}_s={w.s}\n{name}_side={w.side}\n{name}_gap={w.gap}")


def cmd_compare(args) -> int:
    grid, f, g = _render(args, args.state_a, args.state_b)
    q = _reference_for(args, grid)
    verdict = compare(f, g, q, eps_cmp=args.tol)
    _print_verdict(args.state_a, args.state_b, verdict, args.ref)
    return 0


def cmd_scan(args) -> int:
    bracket = _parse_bracket(args.bracket)
    grid, f, g = _render(args, args.state_a, args.state_b)
    result = scan_threshold(
        f,
        g,
        states.thermal_reference_family(grid, args.rep),
        bracket,
        resolution=args.resolution,
        eps_cmp=args.tol,
    )
    print("parameter=nbar")
    print(f"lower={result.lower!r}")
    print(f"upper={result.upper!r}")
    print(f"midpoint={result.midpoint!r}")
    print(f"verdict_lower={result.verdict_lower.value}")
    print(f"verdict_upper={result.verdict_upper.value}")
    return 0


def cmd_monotone(args) -> int:
    grid, f = _render(args, args.state)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    q = _reference_for(args, grid)
    if q is None and any(w.startswith("divergence") for w in which):
        q = states.reference(states._each_mode(states.VACUUM, grid.modes), grid, args.rep)
    report = monotones.monotone_report(f, which, q)
    for k, v in report.items():
        print(f"{k}={v:.10g}")
    return 0


def cmd_apply(args) -> int:
    """The channel's output for the state's Wigner function (no ``--rep``)."""
    spec = states.parse_state(args.state)
    grid = _parse_grid_flag(args.grid, spec.modes, args.hbar)
    channel = parse_channel(args.channel)
    out = channel.apply(spec, grid)
    for line in channel.notes:
        print(line)
    report = truncation_report(out)
    print(f"normalization_defect={report.normalization_defect!r}")
    print(f"boundary_max={report.boundary_max!r}")
    write_grid_file(args.out, out)
    return 0


def cmd_dvec(args) -> int:
    f = QuasiVector.from_text(args.f, exact=args.exact)
    g = QuasiVector.from_text(args.g, exact=args.exact)
    q = QuasiVector.from_text(args.q, exact=args.exact).entries if args.q else None
    _print_verdict(args.f, args.g, vec_compare(f, g, q), args.q)
    return 0


# -- wiring -------------------------------------------------------------------

def _add_common(sub, rep=True, tol=False):
    """--grid and --hbar; --rep unless Wigner-only, --tol where it compares."""
    sub.add_argument("--grid", help="grid override, e.g. L=7,N=700")
    sub.add_argument("--hbar", choices=[HBAR_HALF, HBAR_ONE], default=HBAR_HALF)
    if rep:
        sub.add_argument("--rep", choices=["wigner", "husimi"], default="wigner")
    if tol:
        sub.add_argument("--tol", type=float, default=DEFAULT_EPS_CMP,
                         help="comparison tolerance in curve units")


@functools.cache  # argparse keeps no state between parses
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
    _add_common(p, tol=True)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("scan", help="bisect the thermal references for a verdict flip")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--bracket", required=True, help="lo:hi parameter range")
    p.add_argument("--resolution", type=float, default=0.01)
    _add_common(p, tol=True)
    p.set_defaults(func=cmd_scan)

    p = subs.add_parser("monotone", help="evaluate Schur-convex monotones")
    p.add_argument("--state", required=True)
    p.add_argument("--which", default="nv,purity,max,min")
    p.add_argument("--ref", help="reference for divergences (default vacuum on every mode)")
    _add_common(p)
    p.set_defaults(func=cmd_monotone)

    p = subs.add_parser("apply", help="apply a channel kernel to a Wigner function")
    p.add_argument("--channel", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True, help="output grid file")
    _add_common(p, rep=False)
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
