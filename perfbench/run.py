"""Run one benchmark workload against the netmimo sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times the workload untraced for about S seconds
and reports the end-to-end metrics; the throughput is scaled to a
reference host speed (see hostspeed.py).  With ``--trace 1`` it runs items
untraced for about S/2 seconds, re-runs exactly those items with every
public netmimo function wrapped in a span, and reports the per-layer
metrics.  The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every correctness check passed.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
# The import and the set-up (config parsing, inputs, warm-up item) are each
# timed this many times; setup_s is the sum of the two medians.
SETUP_REPEATS = 7


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _environment(workers: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration")),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": workers,
    }


def _import_seconds() -> float:
    """Wall time from starting a fresh interpreter to netmimo imported."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import netmimo"
    t0 = time.perf_counter()
    # No timeout: with one, subprocess polls the child at up to 50 ms steps,
    # which would quantize the measurement.
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _timed(workload, state, units, seconds, workers, checks, tracer=None, meter=None):
    """Run units back to back; start another only if it should end within
    ``seconds``.  With a meter, sample the host speed between steps.
    Returns (outcomes, units run, wall seconds outside the meter's kernel)."""
    outcomes, done = [], []
    t0 = time.perf_counter()
    spent0 = meter.spent if meter is not None else 0.0
    work = 0.0
    for unit in units:
        for step in unit:
            outcomes.extend(workload.run_step(state, step, workers, checks, tracer))
            if meter is not None:
                meter.tick()
        done.append(unit)
        wall = time.perf_counter() - t0
        work = wall - (meter.spent - spent0 if meter is not None else 0.0)
        if wall * (len(done) + 1) / len(done) > seconds:
            break
    return outcomes, done, work


def _compare_sections(base, traced, checks) -> None:
    """The traced re-run must reproduce every untraced outcome exactly."""
    if [o.key for o in base] != [o.key for o in traced]:
        checks.fail("the traced section ran different items than the untraced one")
        return
    for a, b in zip(base, traced):
        same_rate = a.rate == b.rate or (math.isnan(a.rate) and math.isnan(b.rate))
        if not same_rate or (a.iterations, a.converged, a.failed) != (b.iterations, b.converged, b.failed):
            checks.fail(f"item {a.key}: traced result differs from the untraced record")


def _print_metrics(title, metrics) -> None:
    print(f"# {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit:10s} n={n}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "netmimo", "__init__.py")):
        print(f"error: no netmimo sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One BLAS thread per process, fixed before numpy is imported; pool
    # workers inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # This directory's modules are imported as the perfbench package only.
    sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
        p for p in sys.path if os.path.abspath(p or ".") != HERE]

    import netmimo  # noqa: F401

    from perfbench import metrics as m
    from perfbench.hostspeed import SpeedMeter
    from perfbench.stats import median
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Checks, TrialChecker, load_reference

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference()[workload.name]
    os.makedirs(OUT_DIR, exist_ok=True)
    checks = Checks()
    checker = TrialChecker()

    import_s = median(_import_seconds() for _ in range(SETUP_REPEATS))
    rep_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, OUT_DIR)
        with checker.installed():
            workload.warm_up(state, reference, checks)
        rep_s.append(time.perf_counter() - t0)
    setup_s = import_s + median(rep_s)

    workers = workload.workers if args.trace == 0 else 1
    print("# env " + json.dumps(_environment(workers), sort_keys=True))

    if args.trace == 0:
        meter = SpeedMeter(processes=workers)
        with checker.installed():
            outcomes, _, elapsed = _timed(workload, state, workload.units(state, per_item=False),
                                          args.seconds, workers, checks, meter=meter)
        meter.sample()  # the stretch after the last tick
        workload.finish(state, outcomes, reference, checks)
        metrics = m.end_to_end(outcomes, elapsed * meter.scale(), setup_s, SETUP_REPEATS,
                               workers > 1)
        attempted = outcomes
        print(f"# wall time: {len(outcomes) / elapsed:.6g} items/s over {elapsed:.6g} s; "
              f"host speed scale {meter.scale():.4f} ({len(meter.samples)} kernel samples)")
    else:
        with checker.installed():
            base, units, untraced_s = _timed(workload, state, workload.units(state, per_item=True),
                                             args.seconds / 2.0, workers, checks)
        tracer = Tracer()
        checker.tracer = tracer
        emit_bytes = getattr(state, "emit_bytes", [])
        emit_bytes.clear()
        with tracer.installed(), checker.installed():
            traced, _, traced_s = _timed(workload, state, iter(units), math.inf, workers, checks,
                                         tracer)
        _compare_sections(base, traced, checks)
        workload.finish(state, base, reference, checks)
        if not m.spans_nest(tracer, traced_s):
            checks.fail("spans do not nest, so self times cannot add up to the wall time")
        tracer.dump(os.path.join(OUT_DIR, f"spans-{workload.name}.npz"))
        metrics = m.per_layer(tracer, traced_s, untraced_s, emit_bytes)
        attempted = base + traced

    failed = sum(o.failed for o in attempted)
    table = dict(metrics)
    if args.trace == 0:
        table["failed_frac"] = (failed / len(attempted), "fraction", len(attempted))
    _print_metrics(f"{workload.name} seed={args.seed} trace={args.trace}", table)
    for problem in checks.problems[:20]:
        print(f"# check failed: {problem}")
    result = {
        "correct": checks.ok,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": m.finite(value), "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
