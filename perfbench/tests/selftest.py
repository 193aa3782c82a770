"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests/selftest.py

Kept out of the package's test suite: they test the harness, not qmaj.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import types
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_self_times_nested_and_overlapping():
    spans = [
        Span("op", 0, 100),
        Span("a", 10, 40, parent=0),
        Span("b", 20, 30, parent=1),
        Span("c", 50, 60, parent=0),
    ]
    assert self_times(spans) == [60, 20, 10, 10]
    assert sum(self_times(spans)) == 100
    # children that overlap (threads) are counted once, clipped to the parent
    spans = [Span("op", 0, 100), Span("x", 10, 50, parent=0),
             Span("y", 40, 70, parent=0), Span("z", 90, 120, parent=0)]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_tail_keeps_ten_samples_beyond():
    xs = list(range(100))
    value, pct, beyond = run.tail(xs)
    assert (value, beyond) == (89, 10)
    assert sum(x > value for x in xs) == 10
    assert pct == 100 * 89 / 99
    assert run.tail(list(range(21))) == (10, 50.0, 10)
    # too few samples for the rule: the median, with fewer beyond it
    assert run.tail([5, 1, 4, 2, 3]) == (3, 50.0, 2)
    assert run.tail([4, 1, 3, 2]) == (2.5, 50.0, 2)
    assert run.tail([7.0]) == (7.0, 50.0, 0)


def _function_bindings():
    """Every function or method bound in a qmaj module, its classes and the package."""
    import importlib

    owners = [importlib.import_module("qmaj")]
    owners += [importlib.import_module(f"qmaj.{m}") for m in layers.LAYERS]
    owners += [c for o in owners[1:] for c in vars(o).values()
               if isinstance(c, type) and c.__module__ == o.__name__]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()
            if isinstance(v, types.FunctionType)}


def test_traced_run_restores_every_binding():
    from qmaj.grids import GridSpec

    q = workloads.import_qmaj(ROOT / "src")
    before = _function_bindings()
    tracer = Tracer(layers.PACKAGE, layers.LAYERS, layers.HOOKS)
    grid = GridSpec(1, 7.0, 64)
    curves, lorenz = q.rearrange.curves, q.rearrange.lorenz_curves
    with tracer.installed():
        # copies made by ``from .rearrange import ...`` are wrapped too
        for owner in (q.rearrange, q.compare, q.cli):
            assert owner.curves is not curves and owner.curves.__wrapped__ is curves
        assert q.monotones.lorenz_curves.__wrapped__ is lorenz
        assert sys.modules["qmaj"].compare.__wrapped__ is q.compare.compare.__wrapped__
        with tracer.span(layers.ROOT):
            f = q.states.render("fock:1", grid)
            g = q.states.render("fock:2", grid)
            q.compare.compare(f, g)
            with contextlib.redirect_stdout(io.StringIO()):
                assert q.cli.main(["dvec", "compare", "1,0", "0.5,0.5", "--exact"]) == 0
    spans = tracer.take()
    names = Counter(s.name for s in spans)
    assert names["states.render"] == 2
    assert names["rearrange.curves"] == 2 and names["rearrange.lorenz_curves"] == 2
    assert names["discrete.vec_compare"] == 1
    totals = layers.LayerTotals()
    totals.add_op(spans)  # raises unless the self times add up to the op time
    assert totals.counts["rearrange.curves.cells"] == 2 * grid.size

    assert tracer.patched and not tracer.leftovers()
    for owner, attr, original in tracer.patched:
        assert vars(owner)[attr] is original
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_seed_fixes_the_op_sequence():
    for cls in workloads.WORKLOADS.values():
        w = cls()
        template = Counter(op.kind for op in w.cycle())
        first = list(itertools.islice(workloads.op_cycles(w, 1), 3))
        again = list(itertools.islice(workloads.op_cycles(w, 1), 3))
        other = list(itertools.islice(workloads.op_cycles(w, 2), 3))
        assert first == again
        for a, b in zip(first, other):
            assert Counter(op.kind for op in a) == Counter(op.kind for op in b) == template
            if len(template) > 1:
                assert [op.kind for op in a] != [op.kind for op in b]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
