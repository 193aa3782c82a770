"""qmaj benchmark: run one workload, check every op, print its metrics.

    python3 perfbench/run.py --workload session --seed 1 --seconds 8 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the run record (code version, library versions, thread
settings, seed, tail percentile).  Uses only the standard library; each
measurement runs in a fresh worker process (worker.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up-only processes started before the measured one; setup_s is the
# median over these and the measured process
SETUP_PROBES = 2
# the whole run must end within 180 s
RUN_LIMIT_S = 170.0

BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples beyond it.

    With n sorted samples that is the (TAIL_BEYOND + 1)-th largest, at
    percentile 100 * (n - 1 - TAIL_BEYOND) / (n - 1).  With fewer than
    2 * TAIL_BEYOND + 1 samples that rank would fall below the median, so the
    median is returned instead, with its smaller count beyond.

    Returns (value, percentile, samples beyond it).
    """
    n = len(latencies)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(latencies), 50.0, n // 2
    idx = n - 1 - TAIL_BEYOND
    return sorted(latencies)[idx], 100.0 * idx / (n - 1), TAIL_BEYOND


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], env: dict, timeout: float) -> tuple[float, list[str]]:
    """Start a worker, wait for it; return (seconds from start to READY, stdout lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    lines: list[tuple[float, str]] = []

    def pump():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=pump)
    reader.start()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker {argv} exceeded {timeout:.0f} s")
    finally:
        reader.join()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker {argv} exited with {proc.returncode}")
    ready = [t for t, line in lines if line == "READY"]
    if not ready:
        raise WorkerError(f"worker {argv} never became ready")
    return ready[0] - t0, [line for _, line in lines]


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / layers.PACKAGE).rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(report: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and the tail facts the record states."""
    latencies = [seconds for _, seconds in report["samples"]]
    tail_s, percentile, beyond = tail(latencies)
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": report["peak_rss_mib"],
        "ok_frac": 1.0 - report["failed"] / report["attempted"],
    }
    tail_facts = {"tail_percentile": percentile, "tail_samples_beyond": beyond,
                  "latency_samples": len(latencies)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, tail_facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / layers.PACKAGE / "__init__.py").is_file():
        print(f"error: no {layers.PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    env = dict(os.environ)
    qmaj_threads = env.pop("QMAJ_THREADS", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup, _ = run_worker([*common, "--setup-only"], env, timeout=60.0)
                setups.append(setup)
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        setup, lines = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", str(scratch)],
            env, timeout=remaining,
        )
        setups.append(setup)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch_root.rmdir()

    report = json.loads(lines[-1])
    if args.trace:
        if not report["layers"]:
            print("error: no traced op completed", file=sys.stderr)
            return 1
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {k: {"value": report["layers"][k], "unit": units[k]} for k in units}
        tail_facts = {}
    else:
        metrics, tail_facts = end_to_end(report, setups)

    sha, dirty = git_state()
    kinds: dict[str, list[float]] = {}
    for kind, seconds in report["samples"]:
        kinds.setdefault(kind, []).append(seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cycles": report["cycles"],
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        **report["versions"],
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "QMAJ_THREADS": qmaj_threads,
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "attempted": report["attempted"],
        "failed": report["failed"],
        "fail_frac": report["failed"] / report["attempted"],
        "failures": report["failures"],
        **tail_facts,
        "setup_samples_s": setups,
        "kind_mean_ms": {k: 1e3 * statistics.fmean(v) for k, v in sorted(kinds.items())},
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
