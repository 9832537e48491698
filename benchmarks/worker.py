"""One benchmark process: set up a workload, run passes, print one JSON line.

Started by ``run.py`` in a fresh interpreter, so set-up time and peak memory
belong to one workload.  ``--setup-only`` stops after the set-up.  With
``--trace 1`` the first half of the time runs untraced passes and the second
half traced ones; the difference of their median pass times is the tracing
overhead.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "geomflow-bench"


def import_program():
    """Put the checkout's ``src`` first on the path and import geomflow from it."""
    sys.path.insert(0, str(SRC))
    import geomflow

    if Path(geomflow.__file__).resolve().parent != SRC / "geomflow":
        raise ImportError(f"geomflow imported from {geomflow.__file__}, not {SRC}")


def nearest_rank(values, q: float) -> float:
    """The q-quantile as the ceil(q n)-th smallest value (no interpolation)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def run_passes(workload, log, seconds: float, tracer=None) -> list[float]:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    errors = []
    t0 = time.perf_counter()
    while not log.pass_ops or time.perf_counter() - t0 < seconds:
        if tracer is not None:
            tracer.current_pass = len(log.pass_ops)
        log.begin_pass()
        errors += workload.run_pass(log)
        log.end_pass()
    return errors


def measure(workload, seconds: float) -> dict:
    from workloads import OpLog

    log = OpLog()
    errors = run_passes(workload, log, seconds)
    ops, passes = log.normalized()
    lat_ms = [1e3 * x for x in ops]
    return {
        "log": log,
        "metrics": {
            "run_s": statistics.median(passes),
            "op_ms_p50": nearest_rank(lat_ms, 0.5),
            "op_ms_p90": nearest_rank(lat_ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # no result reached its comparison only when ops failed
            "ref_err": statistics.median(errors) if errors else 1.0,
        },
        "samples": {"passes": len(log.pass_times), "ops": len(lat_ms)},
        "raw": {"pass_times_s": log.pass_times,
                "op_ms": [1e3 * x for x in log.latencies],
                "calibration_ms": [1e3 * x for x in log.calibrations],
                "pass_scales": log.pass_scales()},
    }


def traced_passes(workload, seconds: float, tracer):
    """Run traced passes; returns the OpLog.  The caller installs the tracer."""
    from workloads import OpLog

    log = OpLog(tracer=tracer)
    run_passes(workload, log, seconds, tracer)
    return log


def measure_traced(workload, seconds: float, spans_path: Path) -> dict:
    from tracer import Tracer, pass_metrics
    from workloads import OpLog

    plain = OpLog()
    run_passes(workload, plain, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        log = traced_passes(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    per_pass = []
    for p, scale in enumerate(log.pass_scales()):
        m = pass_metrics(tracer, p)
        per_pass.append({k: v * scale if k.endswith("_s") else v for k, v in m.items()})
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    metrics = {}
    for key in per_pass[0]:
        if key.endswith("_s"):  # times: median over traced passes
            metrics[key] = statistics.median(p[key] for p in per_pass)
        else:  # counts and ratios: one pass
            metrics[key] = per_pass[0][key]
    metrics["trace.overhead_s"] = (
        statistics.median(log.normalized()[1]) - statistics.median(plain.normalized()[1])
    )
    counts_repeat = all(
        p[k] == per_pass[0][k] for p in per_pass for k in p if not k.endswith("_s")
    )
    log.attempted += plain.attempted
    log.failed += plain.failed
    log.failures[:0] = plain.failures
    return {
        "log": log,
        "metrics": metrics,
        "samples": {"untraced_passes": len(plain.pass_times),
                    "traced_passes": len(log.pass_times),
                    "spans": len(tracer.start),
                    "counts_repeat": counts_repeat},
        "raw": {"untraced_pass_times_s": plain.pass_times,
                "traced_pass_times_s": log.pass_times,
                "untraced_pass_scales": plain.pass_scales(),
                "traced_pass_scales": log.pass_scales()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_program()
    import workloads

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    setup_raw_s = time.perf_counter() - T_START
    cal_s = statistics.median(workloads.calibration_kernel() for _ in range(5))
    setup_s = setup_raw_s * 1e-3 * workloads.CAL_MS / cal_s
    try:
        if args.setup_only:
            result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
        else:
            tag = f"{args.workload}-seed{args.seed}"
            if args.trace:
                out = measure_traced(workload, args.seconds, OUT_DIR / f"spans-{tag}.npz")
            else:
                out = measure(workload, args.seconds)
            log = out.pop("log")
            result = {
                "setup_s": setup_s,
                "setup_raw_s": setup_raw_s,
                "attempted": log.attempted,
                "failed": log.failed,
                "failures": log.failures,
                **out,
            }
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
