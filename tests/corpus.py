"""Parity corpus: the verdicts and outputs that a speed change must keep.

A script, not a test module (pytest does not collect it).  Run it from the
repository root with the package on the path::

    PYTHONPATH=src python tests/corpus.py --write before.json   # at the parent
    PYTHONPATH=src python tests/corpus.py --bitwise before.json # at the change

It records the ``repr`` of each case, section by section:

* ``criterion3``: the 19 criterion-3 verdicts (perfbench's ``CRITERION3``),
  and ``outcomes`` their outcomes alone;
* ``statement4``: the ``statement4_check`` flags of the same pairs;
* ``phi``: ``phi_functional`` of each distinct pair (the ``session`` ops);
* ``levels``: D_f and C_f of each criterion-3 state at the thresholds
  ``LEVELS``;
* ``table3``: the five Table 3 ``ThresholdResult`` s;
* ``criterion7``: the two-mode truncation reports, decimated curve ends and
  verdict;
* ``cli``: each perfbench ``cli`` request's exit code, stdout, stderr and
  the sha256 of each file it writes.

It prints one line per section, the sha256 over its cases.  ``--bitwise``
compares every case with a file that ``--write`` wrote and prints the
cases that differ; it exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import CRITERION3, FOCK, TABLE3, Cli  # noqa: E402

from qmaj import cli, states  # noqa: E402
from qmaj.compare import compare, scan_threshold, statement4_check  # noqa: E402
from qmaj.grids import default_grid, truncation_report  # noqa: E402
from qmaj.monotones import phi_functional  # noqa: E402
from qmaj.rearrange import (  # noqa: E402
    codistribution_function,
    distribution_function,
    relative_lorenz_curves,
)

# both signs of zero, thresholds on either side and NaN
LEVELS = (0.0, -0.0, 1e-3, -1e-3, 0.05, -0.05, 0.2, -0.2, math.nan)


def _verdicts(out: dict) -> None:
    grid = default_grid()
    rendered, refs = {}, {}
    for f, g, ref, _ in CRITERION3:
        for text in (f, g):
            rendered.setdefault(text, states.render(text, grid))
        if ref is not None:
            refs.setdefault(ref, states.reference(ref, grid))
    for f, g, ref, _ in CRITERION3:
        case = f"{f} | {g} | {ref}"
        a, b, q = rendered[f], rendered[g], refs.get(ref)
        verdict = compare(a, b, q)
        out["criterion3"][case] = repr(verdict)
        out["outcomes"][case] = verdict.outcome.value
        out["statement4"][case] = repr(statement4_check(a, b, q))
    for f, g in dict.fromkeys((f, g) for f, g, _, _ in CRITERION3):
        out["phi"][f"{f} | {g}"] = repr(phi_functional(rendered[f], rendered[g]))
    for text, h in rendered.items():
        for t in LEVELS:
            levels = (distribution_function(h, t), codistribution_function(h, t))
            out["levels"][f"{text} | {t!r}"] = repr(levels)


def _table3(out: dict) -> None:
    grid = default_grid()
    family = states.thermal_reference_family(grid)
    vac = states.render(FOCK[0], grid)
    for n in TABLE3:
        result = scan_threshold(states.render(FOCK[n], grid), vac, family, (0.1, 3.5), resolution=0.01)
        out["table3"][f"fock:{n}"] = repr(result)


def _criterion7(out: dict) -> None:
    grid = default_grid(modes=2)
    pair = states.render("tensor(fock:2, fock:2)", grid)
    cubic = states.render("tensor(cubic(g=0.02, s=0.1), vacuum)", grid)
    q = states.reference("tensor(vacuum, vacuum)", grid)
    for name, f in (("pair", pair), ("cubic", cubic)):
        out["criterion7"][f"{name} truncation"] = repr(truncation_report(f))
        for curve in relative_lorenz_curves(f, q):
            d = curve.decimated()
            ends = (len(d.s), d.s[-1], d.L[-1], d.decimation_error)
            out["criterion7"][f"{name} {curve.side}"] = repr(ends)
    out["criterion7"]["verdict"] = repr(compare(pair, cubic, q, eps_norm=2e-2))


def _cli(out: dict) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        for _, kind, argv, _ in Cli.REQUESTS:
            argv = [a.replace("{dir}", scratch) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            files = [Path(a) for a in argv if a.startswith(scratch)]
            digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in files]
            out["cli"][kind] = repr((code, stdout.getvalue(), stderr.getvalue(), digests))


SECTIONS = (
    "criterion3", "outcomes", "statement4", "phi", "levels", "table3", "criterion7", "cli"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", help="write every case's repr to this JSON file")
    parser.add_argument("--bitwise", help="compare every case with this JSON file")
    args = parser.parse_args(argv)
    out = {name: {} for name in SECTIONS}
    for collect in (_verdicts, _table3, _criterion7, _cli):
        collect(out)
    for name in SECTIONS:
        text = json.dumps(out[name], sort_keys=True).encode()
        print(f"{name} {len(out[name])} {hashlib.sha256(text).hexdigest()}")
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    if not args.bitwise:
        return 0
    before = json.loads(Path(args.bitwise).read_text())
    differ = [
        (name, case)
        for name in SECTIONS
        for case in sorted(set(before.get(name, {})) | set(out[name]))
        if before.get(name, {}).get(case) != out[name].get(case)
    ]
    for name, case in differ:
        print(f"differs: {name}: {case}")
        print(f"  before: {before.get(name, {}).get(case)}")
        print(f"  now:    {out[name].get(case)}")
    print(f"bitwise: {'no case differs' if not differ else f'{len(differ)} cases differ'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
