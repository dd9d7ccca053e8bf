"""End-to-end and per-layer metrics.

Every metric is ``(value, unit, n)``: ``n`` is the number of samples the
value summarizes.
"""

from __future__ import annotations

import math
import resource

import numpy as np

from .stats import median, tail
from .tracing import LAYERS

SOLVERS = ("dmmse", "emmseia", "pwf", "min_leakage")


def peak_rss_mb(pool: bool) -> float:
    """Peak resident memory of this process, plus that of the largest pool
    worker when items ran in a pool, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pool:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(outcomes, elapsed_s: float, setup_s: float, setup_samples: int,
               pool: bool) -> dict:
    n = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    ok_rates = [o.rate for o in outcomes if not o.failed]
    return {
        "trials_per_s": (n / elapsed_s, "1/s", n),
        "setup_s": (setup_s, "s", setup_samples),
        "peak_rss_mb": (peak_rss_mb(pool), "MiB", 1),
        "ok_frac": (1.0 - failed / n, "fraction", n),
        "converged_frac": (sum(o.converged for o in outcomes) / n, "fraction", n),
        "mean_rate": (float(np.mean(ok_rates)) if ok_rates else 0.0, "bit/s/Hz", len(ok_rates)),
    }


def _put_timing(out: dict, prefix: str, seconds) -> None:
    """Median and tail (in ms) of a list of span durations."""
    ms = [1e3 * s for s in seconds]
    pct, value, n = tail(ms)
    out[f"{prefix}_p50"] = (median(ms), "ms", n)
    out[f"{prefix}_tail"] = (value if value is not None else 0.0, "ms", n)
    out[f"{prefix}_tail_pct"] = (pct if pct is not None else 0.0, "%", n)
    out[f"{prefix}_n"] = (n, "count", n)


def per_layer(tracer, traced_s: float, untraced_s: float, emit_bytes) -> dict:
    """Per-layer counts and self times of a traced section of ``traced_s``
    wall seconds whose untraced twin took ``untraced_s``."""
    spans = tracer.arrays()
    names = np.asarray(tracer.names + [""])
    label = names[spans["name"]] if spans["name"].size else np.asarray([], dtype=str)
    layer = np.asarray([s.split(".")[0] for s in label])
    dur = spans["end"] - spans["start"]
    selft = spans["self"]
    out: dict = {}

    def of(lbl):
        return label == lbl

    def share(seconds):
        return seconds / traced_s if traced_s > 0 else 0.0

    for name in (*LAYERS, "bench"):
        mask = layer == name
        self_s = float(selft[mask].sum())
        out[f"{name}.calls"] = (int(mask.sum()), "count", int(mask.sum()))
        out[f"{name}.self_s"] = (self_s, "s", int(mask.sum()))
        out[f"{name}.share"] = (share(self_s), "fraction", int(mask.sum()))

    solves = np.flatnonzero(of("algorithms.solve_system"))
    notes = tracer.notes
    alg_iters = {alg: 0 for alg in SOLVERS}
    alg_solve_s = {alg: 0.0 for alg in SOLVERS}
    for idx in solves:
        alg, iters = notes[int(idx)]
        alg_iters[alg] += iters
        alg_solve_s[alg] += float(dur[idx])
    iters = sum(alg_iters.values())
    su_solves = np.flatnonzero(of("single_user.solve_multi_constraint"))
    su_iters = sum(notes[int(i)] for i in su_solves)
    all_iters = iters + su_iters

    realize = np.flatnonzero(of("scenario.realize"))
    draws = {tracer.items[int(spans["item"][i])][:-1] for i in realize if spans["item"][i] >= 0}
    _put_timing(out, "scenario.realize_ms", dur[realize])
    out["scenario.realize_per_draw"] = (len(realize) / len(draws) if draws else 0.0, "ratio",
                                        len(realize))
    out["scenario.draw_channels_share"] = (share(float(dur[of("scenario.draw_channels")].sum())),
                                           "fraction", int(of("scenario.draw_channels").sum()))

    def per_iter(count):
        return count / all_iters if all_iters else 0.0

    out["model.calls_per_iter"] = (per_iter(out["model.calls"][0]), "ratio", all_iters)
    out["model.build_problem_ms_p50"] = (
        median(1e3 * dur[of("model.build_interference_problem")]), "ms",
        int(of("model.build_interference_problem").sum()))
    out["linalg.calls_per_iter"] = (per_iter(out["linalg.calls"][0]), "ratio", all_iters)
    linalg_calls = out["linalg.calls"][0]
    out["linalg.us_per_call"] = (1e6 * out["linalg.self_s"][0] / linalg_calls if linalg_calls else 0.0,
                                 "us", linalg_calls)

    out["algorithms.iters"] = (iters, "count", len(solves))
    out["algorithms.ms_per_iter"] = (1e3 * float(dur[solves].sum()) / iters if iters else 0.0,
                                     "ms", iters)
    _put_timing(out, "algorithms.solve_ms", dur[solves])
    for alg in SOLVERS:
        out[f"algorithms.{alg}.iters"] = (alg_iters[alg], "count", len(solves))
        out[f"algorithms.{alg}.solve_s"] = (alg_solve_s[alg], "s", len(solves))

    out["single_user.iters"] = (su_iters, "count", len(su_solves))
    out["single_user.ms_per_iter"] = (1e3 * float(dur[su_solves].sum()) / su_iters if su_iters else 0.0,
                                      "ms", su_iters)
    _put_timing(out, "single_user.solve_ms", dur[su_solves])

    parse = of("experiment.parse_config")
    emit_records = int(of("experiment.emit_records_csv").sum())
    emit = of("experiment.emit_records_csv") | of("experiment.emit_summary_csv") \
        | of("experiment.emit_cdf_csv")
    readback = of("experiment.read_records_csv")
    sweeps = of("experiment.run_sweep")
    out["experiment.parse_ms"] = (median(1e3 * dur[parse]), "ms", int(parse.sum()))
    out["experiment.emit_ms"] = (1e3 * float(dur[emit].sum()) / emit_records if emit_records else 0.0,
                                 "ms", emit_records)
    out["experiment.readback_ms"] = (median(1e3 * dur[readback]), "ms", int(readback.sum()))
    out["experiment.emit_bytes"] = (median(emit_bytes), "B", len(emit_bytes))
    out["experiment.sweep_overhead_s"] = (float(selft[sweeps].sum()), "s", int(sweeps.sum()))

    top = spans["parent"] < 0
    instrumented = float(dur[top].sum())
    out["trace.wall_s"] = (traced_s, "s", 1)
    out["trace.untraced_s"] = (untraced_s, "s", 1)
    out["trace.overhead_frac"] = (1.0 - untraced_s / traced_s if traced_s > 0 else 0.0, "fraction", 1)
    out["trace.spans"] = (int(dur.size), "count", int(dur.size))
    out["trace.items"] = (len(tracer.items), "count", len(tracer.items))
    out["trace.unattributed_s"] = (traced_s - instrumented, "s", 1)
    out["trace.unattributed_share"] = (share(traced_s - instrumented), "fraction", 1)
    return out


def spans_nest(tracer, traced_s: float) -> bool:
    """Every span's children fit inside it and the top-level spans fit in
    the traced wall time, so that the layers' self times plus the
    unattributed time add up to the wall time."""
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    slack = 1e-9 * max(1.0, traced_s)
    return bool(np.all(spans["self"] >= -slack)
                and float(dur[spans["parent"] < 0].sum()) <= traced_s + slack)


def finite(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0
