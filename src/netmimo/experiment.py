"""Monte Carlo sweep harness: configuration parsing, trial execution,
aggregation, and deterministic CSV emission.

A sweep varies one scenario parameter (boundary SNR in dB, cooperation
factor, cluster size, or sector count) over a list of values, runs a fixed
number of independent trials per value for each requested algorithm, and
records the per-cell sum rate plus solver health per trial.  Trial RNG
streams derive from (master_seed, value index, trial index), so results are
reproducible under value reordering and parallel execution; the same
(config, seed) pair yields byte-identical CSV files.

CSV schemas (floats rendered with 12 significant digits):

records.csv  variable, sweep_value, trial, algorithm, per_cell_sum_rate,
             wsmse, iterations, max_constraint_violation, converged, failed
summary.csv  variable, sweep_value, algorithm, trials, failures,
             mean_per_cell_rate, std_per_cell_rate, mean_wsmse,
             mean_iterations
cdf.csv      variable, sweep_value, algorithm, rate, cum_fraction,
             group_mean

Wall-clock time is kept on the in-memory records only; emitting it would
break byte-identical reruns.  Failed trials (solver numerical failures) are
flagged, excluded from means and CDFs, and counted in summary.csv.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .algorithms import ALGORITHMS, AlgorithmConfig, solve_system
from .errors import ConfigurationError, NumericalFailureError
from .model import interference_covariances, mse_matrices_mmse, sum_rate
from .scenario import CLUSTER_SHAPES, SECTOR_PATTERNS, ScenarioConfig, realize

SWEEP_VARIABLES = ("snr_db", "kappa", "cluster_size", "sectors")

RECORD_COLUMNS = (
    "variable", "sweep_value", "trial", "algorithm", "per_cell_sum_rate",
    "wsmse", "iterations", "max_constraint_violation", "converged", "failed",
)
SUMMARY_COLUMNS = (
    "variable", "sweep_value", "algorithm", "trials", "failures",
    "mean_per_cell_rate", "std_per_cell_rate", "mean_wsmse", "mean_iterations",
)
CDF_COLUMNS = ("variable", "sweep_value", "algorithm", "rate", "cum_fraction", "group_mean")


@dataclass(frozen=True)
class TrialRecord:
    variable: str
    sweep_value: float
    trial: int
    algorithm: str
    per_cell_sum_rate: float
    wsmse: float
    iterations: int
    max_constraint_violation: float
    converged: bool
    failed: bool
    wall_time: float  # informational only; never emitted


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple
    trials: int
    algorithms: tuple
    scenario: ScenarioConfig
    algorithm_config: AlgorithmConfig
    master_seed: int

    def validate(self) -> "SweepSpec":
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigurationError(f"sweep variable must be one of {SWEEP_VARIABLES}")
        if not self.values:
            raise ConfigurationError("sweep values must be non-empty")
        if self.trials < 1:
            raise ConfigurationError("trials must be at least 1")
        if not self.algorithms:
            raise ConfigurationError("at least one algorithm is required")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm '{alg}'; choose from {ALGORITHMS}")
        self.scenario.validate()
        self.algorithm_config.validate()
        for value in self.values:
            scenario_for_value(self.scenario, self.variable, value).validate()
        return self


def scenario_for_value(base: ScenarioConfig, variable: str, value) -> ScenarioConfig:
    """Apply one sweep value to the base scenario."""
    if variable == "snr_db":
        return replace(base, boundary_snr_db=float(value))
    if variable == "kappa":
        return replace(base, cooperation_factor=int(value))
    if variable == "cluster_size":
        return replace(base, cluster_size=int(value))
    if variable == "sectors":
        return replace(base, sectors=int(value))
    raise ConfigurationError(f"sweep variable must be one of {SWEEP_VARIABLES}")


def resolve_algorithm_config(base: AlgorithmConfig, algorithm: str) -> AlgorithmConfig:
    """Per-algorithm objective resolution: the covariance fixed-point solver
    only supports the rate objective, and the leakage minimizer has its own
    objective regardless of the configured one."""
    objective = base.objective
    if algorithm == "pwf":
        objective = "srm"
    elif algorithm == "min_leakage":
        objective = "wsmmse"
    return replace(base, algorithm=algorithm, objective=objective).validate()


# ---------------------------------------------------------------------------
# configuration file parsing
# ---------------------------------------------------------------------------

def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigurationError(f"duplicate key '{key}' in configuration")
        out[key] = value
    return out


def _parse_angle(value, key: str) -> float:
    """Angles are radians; strings may carry an explicit 'deg' or 'rad' suffix."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip().lower()
        for suffix, factor in (("deg", np.pi / 180.0), ("rad", 1.0)):
            if text.endswith(suffix):
                try:
                    return float(text[: -len(suffix)]) * factor
                except ValueError:
                    break
    raise ConfigurationError(f"key '{key}' must be a number in radians or a string like '30deg'")


def _coerce(value, target_type, key: str):
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"key '{key}' must be a number")
        return float(value)
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"key '{key}' must be an integer")
        return int(value)
    if target_type is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"key '{key}' must be a string")
        return value
    return value


def _build_dataclass(cls, data: dict, section: str):
    spec_fields = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, raw in data.items():
        if key not in spec_fields:
            raise ConfigurationError(f"unknown key '{key}' in section '{section}'")
        if cls is ScenarioConfig and key == "sector_offset":
            kwargs[key] = _parse_angle(raw, key)
            continue
        ftype = spec_fields[key].type
        if ftype in ("int",):
            kwargs[key] = _coerce(raw, int, key)
        elif ftype in ("float",):
            kwargs[key] = _coerce(raw, float, key)
        elif ftype in ("str",):
            kwargs[key] = _coerce(raw, str, key)
        else:
            kwargs[key] = raw
    return cls(**kwargs)


def parse_config(path) -> SweepSpec:
    """Read and fully validate a sweep configuration (JSON with sections
    'sweep', 'scenario', and optional 'algorithm'); unknown and duplicate
    keys are rejected by name."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=_reject_duplicates)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"configuration file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("the configuration root must be an object")
    for key in raw:
        if key not in ("sweep", "scenario", "algorithm"):
            raise ConfigurationError(f"unknown section '{key}' (expected sweep/scenario/algorithm)")
    if "sweep" not in raw or "scenario" not in raw:
        raise ConfigurationError("sections 'sweep' and 'scenario' are required")

    sweep = dict(raw["sweep"])
    known = {"variable", "values", "trials", "algorithms", "master_seed"}
    for key in sweep:
        if key not in known:
            raise ConfigurationError(f"unknown key '{key}' in section 'sweep'")
    for key in ("variable", "values", "trials", "algorithms"):
        if key not in sweep:
            raise ConfigurationError(f"missing required key '{key}' in section 'sweep'")
    variable = _coerce(sweep["variable"], str, "variable")
    values = sweep["values"]
    if not isinstance(values, list) or not values:
        raise ConfigurationError("key 'values' must be a non-empty list")
    trials = _coerce(sweep["trials"], int, "trials")
    algorithms = sweep["algorithms"]
    if not isinstance(algorithms, list) or not all(isinstance(a, str) for a in algorithms):
        raise ConfigurationError("key 'algorithms' must be a list of algorithm names")
    master_seed = _coerce(sweep.get("master_seed", 0), int, "master_seed")

    scenario = _build_dataclass(ScenarioConfig, dict(raw["scenario"]), "scenario")
    algo_section = dict(raw.get("algorithm", {}))
    if "algorithm" in algo_section:
        raise ConfigurationError(
            "set the algorithm list under sweep.algorithms, not section 'algorithm'"
        )
    algorithm_config = _build_dataclass(AlgorithmConfig, algo_section, "algorithm")

    spec = SweepSpec(
        variable=variable,
        values=tuple(values),
        trials=trials,
        algorithms=tuple(algorithms),
        scenario=scenario,
        algorithm_config=algorithm_config,
        master_seed=master_seed,
    )
    return spec.validate()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def trial_rng(master_seed: int, value_index: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible per-trial stream."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(value_index, trial_index))
    return np.random.default_rng(seq)


def run_trial(spec: SweepSpec, value_index: int, trial_index: int, algorithm: str) -> TrialRecord:
    """Realize one scenario draw, run one algorithm, and record the per-cell
    sum rate (total rate divided by the cluster size), the unweighted sum
    MSE, and solver health.  Numerical failures flag the record instead of
    aborting the sweep."""
    value = spec.values[value_index]
    scenario_cfg = scenario_for_value(spec.scenario, spec.variable, value)
    config = resolve_algorithm_config(spec.algorithm_config, algorithm)
    rng = trial_rng(spec.master_seed, value_index, trial_index)
    system = realize(scenario_cfg, rng)
    started = time.perf_counter()
    try:
        problem, solution = solve_system(system, config)
        omegas = interference_covariances(problem, solution.precoders)
        rate = sum_rate(problem, solution.precoders, omegas) / scenario_cfg.cluster_size
        # each user's own d_k streams: the padded ones are identity in the stack
        mses = mse_matrices_mmse(problem, solution.precoders, omegas)
        wsmse = sum(float(np.trace(e[:d, :d]).real) for e, d in zip(mses, problem.streams))
        violation = float(solution.diagnostics.get("max_violation", 0.0))
        record = TrialRecord(
            variable=spec.variable,
            sweep_value=float(value),
            trial=trial_index,
            algorithm=algorithm,
            per_cell_sum_rate=rate,
            wsmse=wsmse,
            iterations=solution.iterations,
            max_constraint_violation=violation,
            converged=bool(solution.converged),
            failed=False,
            wall_time=time.perf_counter() - started,
        )
    except NumericalFailureError:
        record = TrialRecord(
            variable=spec.variable,
            sweep_value=float(value),
            trial=trial_index,
            algorithm=algorithm,
            per_cell_sum_rate=float("nan"),
            wsmse=float("nan"),
            iterations=0,
            max_constraint_violation=float("nan"),
            converged=False,
            failed=True,
            wall_time=time.perf_counter() - started,
        )
    return record


def _run_trial_args(args) -> TrialRecord:
    return run_trial(*args)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Execute every (value, trial, algorithm) combination; results are
    keyed, so worker count and scheduling never change the output order."""
    spec.validate()
    items = [
        (spec, vi, ti, alg)
        for vi in range(len(spec.values))
        for ti in range(spec.trials)
        for alg in spec.algorithms
    ]
    if workers <= 1:
        records = [_run_trial_args(item) for item in items]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial_args, items, chunksize=1))
    order = {alg: i for i, alg in enumerate(spec.algorithms)}
    value_order = {float(v): i for i, v in enumerate(spec.values)}
    records.sort(key=lambda r: (value_order[r.sweep_value], r.trial, order[r.algorithm]))
    return records


# ---------------------------------------------------------------------------
# aggregation and CSV emission
# ---------------------------------------------------------------------------

def compute_cdf(records) -> tuple:
    """Empirical CDF of per-cell sum rate over the given (already filtered)
    records: ascending (rate, i/N) points plus the mean."""
    rates = sorted(r.per_cell_sum_rate for r in records if not r.failed)
    n = len(rates)
    points = [(rate, (i + 1) / n) for i, rate in enumerate(rates)]
    mean = float(np.mean(rates)) if rates else float("nan")
    return points, mean


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def emit_records_csv(records, path):
    rows = [
        (
            r.variable,
            format_number(r.sweep_value),
            format_number(r.trial),
            r.algorithm,
            format_number(r.per_cell_sum_rate),
            format_number(r.wsmse),
            format_number(r.iterations),
            format_number(r.max_constraint_violation),
            format_number(r.converged),
            format_number(r.failed),
        )
        for r in records
    ]
    _write_rows(path, RECORD_COLUMNS, rows)


def _groups(records):
    seen = []
    for r in records:
        key = (r.variable, r.sweep_value, r.algorithm)
        if key not in seen:
            seen.append(key)
    for key in seen:
        yield key, [r for r in records if (r.variable, r.sweep_value, r.algorithm) == key]


def emit_summary_csv(records, path):
    rows = []
    for (variable, value, algorithm), group in _groups(records):
        ok = [r for r in group if not r.failed]
        rates = np.array([r.per_cell_sum_rate for r in ok])
        rows.append(
            (
                variable,
                format_number(value),
                algorithm,
                format_number(len(group)),
                format_number(len(group) - len(ok)),
                format_number(float(np.mean(rates)) if rates.size else float("nan")),
                format_number(float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0),
                format_number(float(np.mean([r.wsmse for r in ok])) if ok else float("nan")),
                format_number(float(np.mean([r.iterations for r in ok])) if ok else float("nan")),
            )
        )
    _write_rows(path, SUMMARY_COLUMNS, rows)


def emit_cdf_csv(records, path):
    rows = []
    for (variable, value, algorithm), group in _groups(records):
        points, mean = compute_cdf(group)
        for rate, fraction in points:
            rows.append(
                (
                    variable,
                    format_number(value),
                    algorithm,
                    format_number(rate),
                    format_number(fraction),
                    format_number(mean),
                )
            )
    _write_rows(path, CDF_COLUMNS, rows)


def read_records_csv(path) -> list:
    """Parse a records.csv emitted by :func:`emit_records_csv`."""
    records = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != RECORD_COLUMNS:
                raise ConfigurationError(f"{path} does not look like a records.csv file")
            for row in reader:
                records.append(
                    TrialRecord(
                        variable=row[0],
                        sweep_value=float(row[1]),
                        trial=int(row[2]),
                        algorithm=row[3],
                        per_cell_sum_rate=float(row[4]),
                        wsmse=float(row[5]),
                        iterations=int(row[6]),
                        max_constraint_violation=float(row[7]),
                        converged=row[8] == "1",
                        failed=row[9] == "1",
                        wall_time=0.0,
                    )
                )
    except FileNotFoundError as exc:
        raise ConfigurationError(f"records file not found: {path}") from exc
    return records
