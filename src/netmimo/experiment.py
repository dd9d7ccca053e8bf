"""Monte Carlo sweep harness: configuration parsing, trial execution,
aggregation, and deterministic CSV emission.

A sweep varies one scenario parameter (boundary SNR in dB, cooperation
factor, cluster size, or sector count) over a list of distinct values, runs
a fixed number of independent trials per value for each of its distinct
algorithms, and records the per-cell sum rate plus solver health per trial.
Each variable sets one ``ScenarioConfig`` field (``SWEEP_VARIABLES``), and
the scenario checks each value as it checks that field, so the integer
fields take integers only.  A :class:`SweepSpec` builds each swept scenario
and each algorithm's config once, and its trials read them.  Trial RNG
streams derive from (master_seed, value index, trial index), so results
are reproducible under value reordering and parallel execution; the same
(config, seed) pair yields byte-identical CSV files.

Each file format is declared once, by the dataclass that holds it: config
sections are parsed from the fields of :class:`SweepSpec`,
``ScenarioConfig`` and ``AlgorithmConfig``, and the records.csv columns are
the fields of :class:`TrialRecord`.  The configs check their own field
types (:func:`errors.check_field_types`), from a file or from Python alike.

CSV schemas (floats rendered with 12 significant digits, flags as 1/0):

records.csv  the TrialRecord fields in order, without wall_time
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
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .algorithms import ALGORITHMS, FIXED_OBJECTIVES, AlgorithmConfig, solve_system
from .errors import ConfigurationError, NumericalFailureError, check_field_types
from .model import ReceiveSide
from .scenario import ScenarioConfig, realize

# each sweep variable and the ScenarioConfig field its values set
SWEEP_VARIABLES = {"snr_db": "boundary_snr_db", "kappa": "cooperation_factor", "cluster_size": "cluster_size",
                   "sectors": "sectors"}

SUMMARY_COLUMNS = (
    "variable", "sweep_value", "algorithm", "trials", "failures",
    "mean_per_cell_rate", "std_per_cell_rate", "mean_wsmse", "mean_iterations",
)
CDF_COLUMNS = ("variable", "sweep_value", "algorithm", "rate", "cum_fraction", "group_mean")


@dataclass(frozen=True)
class TrialRecord:
    """One trial's result; every field but ``wall_time`` is a records.csv
    column, in this order."""

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


RECORD_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "wall_time")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep.  It checks itself when built, and so on ``dataclasses.replace``,
    each swept scenario included: a wrong type or an invalid value raises
    ConfigurationError.  It keeps what its trials read, built once: the
    swept ``scenarios``, one per value, and the ``configs`` of its
    algorithms (:func:`resolve_algorithm_config`), by name."""

    variable: str
    values: tuple
    trials: int
    algorithms: tuple
    scenario: ScenarioConfig
    algorithm_config: AlgorithmConfig
    master_seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigurationError(f"sweep variable must be one of {tuple(SWEEP_VARIABLES)}")
        if not self.values:
            raise ConfigurationError("sweep values must be non-empty")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be non-negative")
        if self.trials < 1:
            raise ConfigurationError("trials must be at least 1")
        if not self.algorithms:
            raise ConfigurationError("at least one algorithm is required")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigurationError(f"unknown algorithm '{alg}'; choose from {ALGORITHMS}")
        # attributes, not fields: they are no config keys, and replace() rebuilds them
        object.__setattr__(self, "scenarios",
                           tuple(scenario_for_value(self.scenario, self.variable, v) for v in self.values))
        object.__setattr__(self, "configs",
                           {alg: resolve_algorithm_config(self.algorithm_config, alg) for alg in self.algorithms})
        # equal values, or a repeated algorithm, would merge groups in summary.csv
        if len({float(v) for v in self.values}) < len(self.values):
            raise ConfigurationError("sweep values must be distinct")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ConfigurationError("sweep algorithms must be distinct")


def scenario_for_value(base: ScenarioConfig, variable: str, value) -> ScenarioConfig:
    """The base scenario with ``value`` in the field ``variable`` sets,
    which checks it as it checks that field: a finite number, or an integer."""
    return replace(base, **{SWEEP_VARIABLES[variable]: value})


def resolve_algorithm_config(base: AlgorithmConfig, algorithm: str) -> AlgorithmConfig:
    """``base`` for ``algorithm``, with the objective that algorithm fixes
    (``FIXED_OBJECTIVES``) in place of the configured one."""
    return replace(base, algorithm=algorithm, objective=FIXED_OBJECTIVES.get(algorithm, base.objective))


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


def _parse_angle(value):
    """Angles are radians; strings may carry an explicit 'deg' or 'rad'
    suffix.  Any other value goes on as it is, to the field-type check."""
    if not isinstance(value, str):
        return value
    text = value.strip().lower()
    for suffix, factor in (("deg", np.pi / 180.0), ("rad", 1.0)):
        if text.endswith(suffix):
            try:
                return float(text[: -len(suffix)]) * factor
            except ValueError:
                break
    raise ConfigurationError("key 'sector_offset' must be a number in radians or a string like '30deg'")


def _build_dataclass(cls, data, section: str, **given):
    """Config section ``section`` as a ``cls`` (which checks the values),
    with the fields in ``given`` set by the caller: every key must name
    another field, and a field without a default is a required key."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"section '{section}' must be a JSON object")
    spec_fields = {f.name: f for f in fields(cls) if f.name not in given}
    for key in data:
        if key not in spec_fields:
            raise ConfigurationError(f"unknown key '{key}' in section '{section}'")
    for name, f in spec_fields.items():
        if name not in data and f.default is MISSING:
            raise ConfigurationError(f"missing required key '{name}' in section '{section}'")
    kwargs = {**data, **given}
    if "sector_offset" in data:
        kwargs["sector_offset"] = _parse_angle(data["sector_offset"])
    return cls(**kwargs)


def parse_config(path) -> SweepSpec:
    """Read a sweep configuration (JSON with sections 'sweep', 'scenario',
    and optional 'algorithm') into a :class:`SweepSpec`, which checks itself
    and its configs as they are built; unknown and duplicate keys are
    rejected by name, and so is the algorithm list outside section 'sweep'.
    The one seed is ``sweep.master_seed`` (:func:`trial_rng`)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=_reject_duplicates)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"configuration file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("the configuration root must be an object")
    for key in raw:
        if key not in ("sweep", "scenario", "algorithm"):
            raise ConfigurationError(f"unknown section '{key}' (expected sweep/scenario/algorithm)")
    if "sweep" not in raw or "scenario" not in raw:
        raise ConfigurationError("sections 'sweep' and 'scenario' are required")
    if isinstance(raw.get("algorithm"), dict) and "algorithm" in raw["algorithm"]:
        raise ConfigurationError("set 'algorithm' under sweep.algorithms, not in section 'algorithm'")
    return _build_dataclass(
        SweepSpec, raw["sweep"], "sweep",
        scenario=_build_dataclass(ScenarioConfig, raw["scenario"], "scenario"),
        algorithm_config=_build_dataclass(AlgorithmConfig, raw.get("algorithm", {}), "algorithm"),
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def trial_rng(master_seed: int, value_index: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible per-trial stream."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(value_index, trial_index))
    return np.random.default_rng(seq)


def run_trial(spec: SweepSpec, value_index: int, trial_index: int, algorithm: str) -> TrialRecord:
    """Realize one scenario draw, run one of the sweep's algorithms, and
    record the per-cell sum rate (total rate divided by the cluster size),
    the unweighted sum MSE, and solver health.  Numerical failures flag the
    record instead of aborting the sweep."""
    value = spec.values[value_index]
    scenario_cfg, config = spec.scenarios[value_index], spec.configs[algorithm]
    rng = trial_rng(spec.master_seed, value_index, trial_index)
    system = realize(scenario_cfg, rng)
    started = time.perf_counter()
    failed = False
    try:
        problem, solution = solve_system(system, config)
        rx = ReceiveSide(problem, solution.precoders)
        rate = rx.rate / scenario_cfg.cluster_size
        # each user's own d_k streams: the padded ones are identity in the stack
        wsmse = sum(float(np.trace(e[:d, :d]).real) for e, d in zip(rx.mses, problem.streams))
        violation = float(solution.diagnostics.get("max_violation", 0.0))
        iterations, converged = solution.iterations, bool(solution.converged)
    except NumericalFailureError:
        rate = wsmse = violation = float("nan")
        iterations, converged, failed = 0, False, True
    return TrialRecord(
        variable=spec.variable,
        sweep_value=float(value),
        trial=trial_index,
        algorithm=algorithm,
        per_cell_sum_rate=rate,
        wsmse=wsmse,
        iterations=iterations,
        max_constraint_violation=violation,
        converged=converged,
        failed=failed,
        wall_time=time.perf_counter() - started,
    )


def _run_trial_args(args) -> TrialRecord:
    return run_trial(*args)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Execute every (value, trial, algorithm) combination; the records come
    in that item order whatever the worker count (``pool.map`` keeps it).
    A pool of w workers takes the n items in chunks of ceil(n / (4 w))."""
    items = [
        (spec, vi, ti, alg)
        for vi in range(len(spec.values))
        for ti in range(spec.trials)
        for alg in spec.algorithms
    ]
    if workers <= 1:
        return [_run_trial_args(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_trial_args, items, chunksize=-(-len(items) // (4 * workers))))


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
    """CSV text of a value: strings as they are, flags as 1/0, integers
    exactly, floats with 12 significant digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.12g" % float(x)


def _write_rows(path, header, rows):
    """A CSV file of ``header`` and ``rows``, every value through
    :func:`format_number`."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_number(x) for x in row] for row in rows)


def emit_records_csv(records, path):
    _write_rows(path, RECORD_COLUMNS, ([getattr(r, name) for name in RECORD_COLUMNS] for r in records))


def _groups(records):
    """Records grouped by (variable, sweep value, algorithm), in first-seen order."""
    groups = {}
    for r in records:
        groups.setdefault((r.variable, r.sweep_value, r.algorithm), []).append(r)
    return groups.items()


def emit_summary_csv(records, path):
    rows = []
    for (variable, value, algorithm), group in _groups(records):
        ok = [r for r in group if not r.failed]
        rates = np.array([r.per_cell_sum_rate for r in ok])
        rows.append((
            variable, value, algorithm, len(group), len(group) - len(ok),
            float(np.mean(rates)) if rates.size else float("nan"),
            float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0,
            float(np.mean([r.wsmse for r in ok])) if ok else float("nan"),
            float(np.mean([r.iterations for r in ok])) if ok else float("nan"),
        ))
    _write_rows(path, SUMMARY_COLUMNS, rows)


def emit_cdf_csv(records, path):
    rows = []
    for (variable, value, algorithm), group in _groups(records):
        points, mean = compute_cdf(group)
        rows.extend((variable, value, algorithm, rate, fraction, mean) for rate, fraction in points)
    _write_rows(path, CDF_COLUMNS, rows)


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag {text!r} is not 0 or 1")
    return text == "1"


# the records.csv parser of each column, from its TrialRecord field type
_RECORD_PARSERS = tuple({"str": str, "float": float, "int": int, "bool": _parse_flag}[f.type]
                        for f in fields(TrialRecord) if f.name in RECORD_COLUMNS)


def read_records_csv(path) -> list:
    """Parse a records.csv emitted by :func:`emit_records_csv`.  A row with
    the wrong number of fields, or a field that does not parse as its
    column's type, raises :class:`ConfigurationError` naming the line."""
    records = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != RECORD_COLUMNS:
                raise ConfigurationError(f"{path} does not look like a records.csv file")
            for row in reader:
                try:
                    if len(row) != len(RECORD_COLUMNS):
                        raise ValueError(f"{len(row)} fields, expected {len(RECORD_COLUMNS)}")
                    values = [parse(text) for parse, text in zip(_RECORD_PARSERS, row)]
                except ValueError as exc:
                    raise ConfigurationError(f"{path}, line {reader.line_num}: {exc}") from exc
                records.append(TrialRecord(*values, wall_time=0.0))
    except FileNotFoundError as exc:
        raise ConfigurationError(f"records file not found: {path}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"{path} is not a readable CSV file: {exc}") from exc
    return records
