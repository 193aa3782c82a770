"""Per-layer metrics of qmaj, computed from the spans of traced ops.

A layer is one ``qmaj`` module.  Span names are ``<module>.<function>`` for the
module that defines the function, so a copy bound elsewhere by ``from .x
import y`` still counts for its home layer.  Times are in ms, counts are whole
calls, cells or bytes; every figure is per traced op unless it is a ratio.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

from tracer import BOOKKEEPING, Span, self_times

PACKAGE = "qmaj"
LAYERS = ("states", "grids", "rearrange", "compare", "monotones", "channels", "discrete", "cli")

CURVE_BUILDERS = ("rearrange.lorenz_curves", "rearrange.relative_lorenz_curves")
CURVE_SPANS = CURVE_BUILDERS + ("rearrange.curves",)
PIECEWISE = ("rearrange.piecewise_plus_integral", "rearrange.piecewise_minus_integral")
CHANNEL_APPLY = ("channels.apply_gaussian", "channels.apply_dephasing")
CLI_WRITES = ("cli.write_curves_csv", "cli.write_curves_svg", "cli.write_grid_file")
ROOT = "op"

# (name, unit, better) in the order they are reported
PER_LAYER = [
    ("states.render.self_ms", "ms", "lower"),
    ("states.render.calls", "count", "lower"),
    ("states.reference.self_ms", "ms", "lower"),
    ("states.reference.calls", "count", "lower"),
    ("states.wigner_from_wavefunction.ms", "ms", "lower"),
    ("rearrange.curves.self_ms", "ms", "lower"),
    ("rearrange.curves.calls", "count", "lower"),
    ("rearrange.curves.cells", "count", "lower"),
    ("rearrange.curves.repeat_frac", "ratio", "higher"),
    ("rearrange.decimated.ms", "ms", "lower"),
    ("rearrange.piecewise.ms", "ms", "lower"),
    ("rearrange.piecewise.calls", "count", "lower"),
    ("compare.dominance.self_ms", "ms", "lower"),
    ("compare.compare.calls", "count", "lower"),
    ("compare.statement4.self_ms", "ms", "lower"),
    ("compare.scan.verdicts", "count", "lower"),
    ("monotones.phi.ms", "ms", "lower"),
    ("monotones.report.ms", "ms", "lower"),
    ("channels.apply_gaussian.ms", "ms", "lower"),
    ("channels.apply_dephasing.ms", "ms", "lower"),
    ("channels.calls", "count", "lower"),
    ("discrete.vec_compare.ms", "ms", "lower"),
    ("discrete.vec_compare.calls", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.write.ms", "ms", "lower"),
    ("cli.write.bytes", "B", "lower"),
    # self time by layer: with cli.self_ms, cli.write.ms, op.self_ms and
    # trace.self_ms these add up to trace.op_ms
    ("states.self_ms", "ms", "lower"),
    ("grids.self_ms", "ms", "lower"),
    ("rearrange.self_ms", "ms", "lower"),
    ("compare.self_ms", "ms", "lower"),
    ("monotones.self_ms", "ms", "lower"),
    ("channels.self_ms", "ms", "lower"),
    ("discrete.self_ms", "ms", "lower"),
    ("op.self_ms", "ms", "lower"),
    ("trace.self_ms", "ms", "lower"),
    ("trace.op_ms", "ms", "lower"),
    ("process.cpu_per_wall", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.data if a.flags.c_contiguous else a.tobytes())
    return h.digest()


def _regular_curve_key(args, kwargs, result) -> dict:
    f = _arg(args, kwargs, 0, "f")
    return {"cells": f.values.size, "key": _digest(f.values)}


def _relative_curve_key(args, kwargs, result) -> dict:
    f = _arg(args, kwargs, 0, "f")
    q = _arg(args, kwargs, 1, "q")
    return {"cells": f.values.size, "key": _digest(f.values, q.values)}


def _written_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


HOOKS = {
    "rearrange.lorenz_curves": _regular_curve_key,
    "rearrange.relative_lorenz_curves": _relative_curve_key,
    **{name: _written_bytes for name in CLI_WRITES},
}


class LayerTotals:
    """Accumulates span figures over the traced ops of one run."""

    def __init__(self):
        self.ns = Counter()
        self.counts = Counter()
        self.ops = 0
        self.curve_keys: set[bytes] = set()
        self.curve_repeats = 0

    def add_op(self, spans: list[Span]) -> None:
        """Fold in one traced op; its spans must form one tree under ``op``."""
        roots = [s for s in spans if s.parent < 0]
        if len(roots) != 1 or roots[0].name != ROOT:
            raise ValueError(f"expected one root span {ROOT!r}, got {[s.name for s in roots]}")
        selfs = self_times(spans)
        if sum(selfs) != roots[0].end - roots[0].start:
            raise ValueError("self times do not add up to the traced op time")
        self.ops += 1
        ns, counts = self.ns, self.counts
        ns["trace.op_ms"] += roots[0].end - roots[0].start
        in_scan = [False] * len(spans)
        for i, (s, own) in enumerate(zip(spans, selfs)):
            name, dur = s.name, s.end - s.start
            in_scan[i] = s.parent >= 0 and (
                in_scan[s.parent] or spans[s.parent].name == "compare.scan_threshold"
            )
            layer = name.partition(".")[0]
            if name in CLI_WRITES:
                ns["cli.write.ms"] += own
                counts["cli.write.bytes"] += s.extra["bytes"] if s.extra else 0
            elif name == ROOT:
                ns["op.self_ms"] += own
            elif name == BOOKKEEPING:
                ns["trace.self_ms"] += own
            elif layer in LAYERS:
                ns[f"{layer}.self_ms"] += own
            else:
                raise ValueError(f"span {name!r} belongs to no layer")

            if name in ("states.render", "states.reference"):
                ns[f"{name}.self_ms"] += own
                counts[f"{name}.calls"] += 1
            elif name == "states.wigner_from_wavefunction":
                ns[f"{name}.ms"] += dur
            elif name == "rearrange.LorenzCurve.decimated":
                ns["rearrange.decimated.ms"] += dur
            elif name in PIECEWISE:
                ns["rearrange.piecewise.ms"] += dur
                counts["rearrange.piecewise.calls"] += 1
            elif name == "compare.compare_curve_pairs":
                ns["compare.dominance.self_ms"] += own
            elif name == "compare.compare":
                counts["compare.compare.calls"] += 1
                counts["compare.scan.verdicts"] += in_scan[i]
            elif name == "compare.statement4_check":
                ns["compare.statement4.self_ms"] += own
            elif name == "monotones.phi_functional":
                ns["monotones.phi.ms"] += dur
            elif name == "monotones.monotone_report":
                ns["monotones.report.ms"] += dur
            elif name in CHANNEL_APPLY:
                ns[f"{name}.ms"] += dur
                counts["channels.calls"] += 1
            elif name == "discrete.vec_compare":
                ns[f"{name}.ms"] += dur
                counts[f"{name}.calls"] += 1
            if name in CURVE_SPANS:
                ns["rearrange.curves.self_ms"] += own
            if name in CURVE_BUILDERS and s.extra:
                counts["rearrange.curves.calls"] += 1
                counts["rearrange.curves.cells"] += s.extra["cells"]
                key = s.extra["key"]
                self.curve_repeats += key in self.curve_keys
                self.curve_keys.add(key)

    def metrics(self, cpu_per_wall: float, overhead_frac: float) -> dict[str, float]:
        """Every PER_LAYER metric: per traced op, or a ratio over the run."""
        if not self.ops:
            raise ValueError("no traced ops")
        out = {}
        for name, unit, _ in PER_LAYER:
            if unit == "ms":
                out[name] = self.ns[name] / 1e6 / self.ops
            elif unit in ("count", "B"):
                out[name] = self.counts[name] / self.ops
        builds = self.counts["rearrange.curves.calls"]
        out["rearrange.curves.repeat_frac"] = self.curve_repeats / builds if builds else 0.0
        out["process.cpu_per_wall"] = cpu_per_wall
        out["trace.overhead_frac"] = overhead_frac
        return out
