"""Parity corpus: the verdicts and outputs that a speed change must keep.

A script, not a test module (pytest does not collect it).  Run it from the
repository root with the package on the path::

    PYTHONPATH=src python tests/corpus.py --write before.json   # at the parent
    PYTHONPATH=src python tests/corpus.py --bitwise before.json # at the change
    PYTHONPATH=src python tests/corpus.py --check tests/corpus/verdicts.json

It records the ``repr`` of each case, section by section:

* ``criterion3``: the 19 criterion-3 verdicts (perfbench's ``CRITERION3``),
  and ``outcomes`` their outcomes alone;
* ``statement4``: the ``statement4_check`` flags of the same pairs both
  ways round, and of fock:n and fock:0 both ways round relative to the
  thermal references at both ends of each Table 3 bracket, where a
  direction fails by 10 to 30 eps;
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
cases that differ; it exits 1 if any does.  ``--check`` does the same but
reads each float of a case within the tolerance ``TOLERANCE`` gives its
field (the name before its ``=``), else ``SECTION_TOLERANCE`` its
section, relative to the larger of 1 and its size, and leaves the
digests of the files the CLI writes to ``--bitwise``; the rest of the
case, outcomes, sides, flags and integers, must match exactly.
``tests/corpus/verdicts.json`` is the file written at the parent of the
change that last moved a value on purpose; such a change writes it again.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
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

# --check: the tolerance of each float by its field name, else by its
# section; a witness's place and gap, and the Table 3 bracket ends, which
# move by a bisection step (the resolution) when a verdict at a step flips;
# the tolerances a result reports are its inputs
TOLERANCE = {"s": 1e-9, "gap": 1e-9, "lower": 0.01, "upper": 0.01, "tolerance": 0.0, "resolution": 0.0}
SECTION_TOLERANCE = {
    "criterion3": 1e-9,
    "outcomes": 0.0,
    "statement4": 0.0,
    "phi": 1e-12,
    "levels": 1e-12,
    "table3": 0.0,
    # the truncation reports and decimated curve ends
    "criterion7": 1e-9,
    # the CLI's printed numbers, most of them to 6 digits
    "cli": 1e-5,
}

# a float literal (or nan, inf) standing alone, or after an escaped newline
_FLOAT = re.compile(
    r"(?:(?<![\w.])|(?<=\\n))[-+]?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|nan|inf)(?![\w.])"
)
_FIELD = re.compile(r"(\w+)\*?=$")


def _floats(section: str, text: str) -> tuple[list[str], list[tuple[str, float]]]:
    """``text`` cut around its floats, and each float with its field."""
    rest, found, at = [], [], 0
    for m in _FLOAT.finditer(text):
        rest.append(text[at : m.start()])
        name = _FIELD.search(text, 0, m.start())
        found.append((name.group(1) if name else section, float(m.group())))
        at = m.end()
    rest.append(text[at:])
    return rest, found


# the sha256 of a file the CLI wrote, which a rounding-level change moves
_DIGEST = re.compile(r"'[0-9a-f]{64}'")


def _close(section: str, before: str | None, now: str | None) -> bool:
    if before is None or now is None:
        return before == now
    before, now = (_DIGEST.sub("'<file>'", text) for text in (before, now))
    (rest_a, a), (rest_b, b) = _floats(section, before), _floats(section, now)
    if rest_a != rest_b or [k for k, _ in a] != [k for k, _ in b]:
        return False
    for (field, x), (_, y) in zip(a, b):
        tol = TOLERANCE.get(field, SECTION_TOLERANCE[section])
        if not (x == y or (x != x and y != y) or abs(x - y) <= tol * max(1.0, abs(x), abs(y))):
            return False
    return True


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
        out["statement4"][f"{g} | {f} | {ref}"] = repr(statement4_check(b, a, q))
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
        fn = states.render(FOCK[n], grid)
        result = scan_threshold(fn, vac, family, (0.1, 3.5), resolution=0.01)
        out["table3"][f"fock:{n}"] = repr(result)
        for nbar in (result.lower, result.upper):
            ref = f"thermal(nbar={nbar!r})"
            q = family(nbar)
            out["statement4"][f"{FOCK[n]} | {FOCK[0]} | {ref}"] = repr(statement4_check(fn, vac, q))
            out["statement4"][f"{FOCK[0]} | {FOCK[n]} | {ref}"] = repr(statement4_check(vac, fn, q))


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
    parser.add_argument(
        "--check", help="compare every case with this JSON file, floats within TOLERANCE"
    )
    args = parser.parse_args(argv)
    out = {name: {} for name in SECTIONS}
    for collect in (_verdicts, _table3, _criterion7, _cli):
        collect(out)
    for name in SECTIONS:
        text = json.dumps(out[name], sort_keys=True).encode()
        print(f"{name} {len(out[name])} {hashlib.sha256(text).hexdigest()}")
    if args.write:
        Path(args.write).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    status = 0
    for mode, path in (("bitwise", args.bitwise), ("check", args.check)):
        if not path:
            continue
        before = json.loads(Path(path).read_text())
        same = (lambda name, a, b: a == b) if mode == "bitwise" else _close
        differ = [
            (name, case)
            for name in SECTIONS
            for case in sorted(set(before.get(name, {})) | set(out[name]))
            if not same(name, before.get(name, {}).get(case), out[name].get(case))
        ]
        for name, case in differ:
            print(f"differs: {name}: {case}")
            print(f"  before: {before.get(name, {}).get(case)}")
            print(f"  now:    {out[name].get(case)}")
        print(f"{mode}: {'no case differs' if not differ else f'{len(differ)} cases differ'}")
        status |= bool(differ)
    return status

if __name__ == "__main__":
    sys.exit(main())
