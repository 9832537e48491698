"""geomflow benchmark: time to solution, accuracy and memory per workload.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload nil3_sweep --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``nil3_sweep``,
``rrfs_1d_hmap``, ``rrfs_2d_coupled``, ``cli_readme``.  Each run starts
fresh worker processes with the checkout's ``src`` on the path and the BLAS
pinned to one thread:

* ``--trace 0``: five set-up-only workers and one measuring worker.  Prints
  the end-to-end metrics ``setup_s`` (median of the six set-ups), ``run_s``
  (median time of one full pass), ``op_ms_p50`` / ``op_ms_p90``
  (nearest-rank quantiles over all ops), ``peak_rss_mb`` and ``ref_err``.
* ``--trace 1``: one worker that runs untraced, then traced passes and prints
  the per-layer metrics, including the tracing overhead ``trace.overhead_s``.

All times are scaled to a reference host speed by a calibration kernel run
between ops and after each set-up (``workloads.CAL_MS``), because the speed
of a shared virtual machine drifts by tens of percent; the raw wall times are
kept in the report.

The human-readable lines come first (machine, sample counts, every metric
with its unit, ``failed_share``); the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Reports and
span files go to ``.bench_build/geomflow-bench/``.  Exits non-zero, without
a result line, when the program cannot be set up or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "geomflow-bench"
WORKLOADS = ("nil3_sweep", "rrfs_1d_hmap", "rrfs_2d_coupled", "cli_readme")
SETUP_REPEATS = 5
BLAS_THREADS = 1
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
    "peak_rss_mb": "MB", "ref_err": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_in"):
        return "bytes"
    if name.endswith("accept_ratio"):
        return "ratio"
    return "count"


class WorkerFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline); its last line is JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerFailed(f"worker timed out: {' '.join(args)}") from err
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_sizes() -> dict:
    try:
        out = subprocess.run(
            ["getconf", "-a"], capture_output=True, text=True, timeout=10
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def machine_info(deadline: float) -> dict:
    probe = (
        "import json, numpy as np;"
        "blas = np.__config__.CONFIG['Build Dependencies']['blas'];"
        "print(json.dumps({'numpy': np.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version'),"
        " 'blas_config': blas.get('openblas configuration')}))"
    )
    info = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "cache_bytes": cache_sizes(),
    }
    try:
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True,
            text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
        info.update(json.loads(proc.stdout))
    except (subprocess.TimeoutExpired, ValueError):
        info["numpy"] = "unknown"
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="geomflow benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "geomflow" / "__init__.py").is_file():
        print(f"error: no geomflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(run_worker(common + ["--setup-only"], deadline))
        res = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    except (WorkerFailed, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(res)
    res["raw"]["setup_raw_s"] = [s["setup_raw_s"] for s in setups]
    setups = [s["setup_s"] for s in setups]

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in res["metrics"].items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update(
            {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in res["metrics"].items()}
        )
    attempted, failed = res["attempted"], res["failed"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(deadline),
        "setup_samples_s": setups, "samples": res["samples"],
        "failed_share": failed / attempted, "failures": res["failures"],
        "metrics": metrics, "raw": res["raw"],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"# machine: {json.dumps(report['machine'])}")
    print(f"# samples: {json.dumps(res['samples'])}, setups {len(setups)}")
    for msg in res["failures"]:
        print(f"# failed op: {msg}")
    print(f"# failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
