"""One fresh process per measurement: set up a workload, then run its closed loop.

Started by run.py.  Prints ``READY`` once imports and shared rendering are
done (run.py times set-up up to that line), then, unless ``--setup-only``,
measures whole cycles of ops for at least ``--seconds`` and prints one JSON
line with the raw samples.

Untraced (``--trace 0``): each op is timed on its own.  Traced (``--trace 1``):
each op runs twice, untraced and traced in alternating order; the traced run
gives the spans, the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(1, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _versions() -> dict[str, str]:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


class Loop:
    def __init__(self, workload, q, state, trace: bool):
        self.workload, self.q, self.state = workload, q, state
        self.trace = trace
        self.samples: list[tuple[str, float]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.cycles = 0
        self.untraced_ns = self.traced_ns = self.untraced_cpu_ns = 0
        self.tracer = Tracer(layers.PACKAGE, layers.LAYERS, layers.HOOKS) if trace else None
        self.totals = layers.LayerTotals()

    def _attempt(self, op, traced: bool) -> int:
        """Run and check one op; return its wall time in ns."""
        self.attempted += 1
        result = error = None
        if traced:
            with self.tracer.installed():
                t0 = time.perf_counter_ns()
                with self.tracer.span(layers.ROOT):
                    try:
                        result = self.workload.run(self.q, self.state, op)
                    except Exception as exc:  # the op's failure is a measured outcome
                        error = exc
                wall = time.perf_counter_ns() - t0
            leftovers = self.tracer.leftovers()
            spans = self.tracer.take()
            if leftovers:
                error = error or RuntimeError(f"tracer left wrapped: {leftovers[:5]}")
            elif error is None:
                try:
                    self.totals.add_op(spans)
                except ValueError as exc:
                    error = exc
        else:
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            try:
                result = self.workload.run(self.q, self.state, op)
            except Exception as exc:  # the op's failure is a measured outcome
                error = exc
            wall = time.perf_counter_ns() - t0
            self.untraced_cpu_ns += time.process_time_ns() - c0
        if error is None:
            try:
                self.workload.check(self.q, self.state, op, result)
            except Exception as exc:  # a malformed output fails its check too
                error = exc
        if error is not None:
            self.failures.append(f"{op.kind}: {type(error).__name__}: {error}")
        return wall

    def run(self, seed: int, seconds: float) -> None:
        """Run whole cycles until ``seconds`` have passed."""
        start = time.perf_counter()
        for cycle in workloads.op_cycles(self.workload, seed):
            for i, op in enumerate(cycle):
                if not self.trace:
                    self.samples.append((op.kind, self._attempt(op, False) / 1e9))
                    continue
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    wall = self._attempt(op, traced)
                    if traced:
                        self.traced_ns += wall
                    else:
                        self.untraced_ns += wall
                        self.samples.append((op.kind, wall / 1e9))
            self.cycles += 1
            if time.perf_counter() - start >= seconds:
                break

    def report(self) -> dict:
        out = {
            "samples": self.samples,
            "cycles": self.cycles,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": _versions(),
        }
        if self.trace:
            out["layers"] = self.totals.metrics(
                cpu_per_wall=self.untraced_cpu_ns / self.untraced_ns,
                overhead_frac=(self.traced_ns - self.untraced_ns) / self.untraced_ns,
            ) if self.totals.ops else {}
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", type=Path, help="directory for files the ops write")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    workload.scratch = args.scratch
    q = workloads.import_qmaj(SRC)
    state = workload.setup(q)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    workload.prepare_checks(q, state)
    loop = Loop(workload, q, state, bool(args.trace))
    loop.run(args.seed, args.seconds)
    print(json.dumps(loop.report()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
