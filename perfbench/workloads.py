"""Workloads: inputs made from the seed, the program path each item takes,
and the checks on what the program returns.

An *item* is one (sweep value, trial, algorithm) solve, or one link on
``single_link``.  A *step* runs one item, or one batch of items on
``sector_drops``; the host-speed kernel may run between steps.  Steps are
grouped into *units*, the points at which the timing loop may stop: a whole
panel pass on the fixed-panel sweeps, one step on the others.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields

import numpy as np

from netmimo import experiment, single_user
from netmimo.errors import NumericalFailureError
from netmimo.experiment import TrialRecord
from netmimo.model import constraint_usage as _constraint_usage
from netmimo.model import sum_rate as _sum_rate
from netmimo.single_user import SingleUserProblem

from .tracing import Patches

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Warm-up (canary) items are converged solves: their rates must match the
# stored reference to this relative tolerance.
CANARY_RTOL = 1e-6
# Per-group mean rates of the fixed panels against the stored reference.
# Loose enough for a reordered floating-point sum to move an unconverged
# solve, tight enough to catch a solver that returns wrong precoders.
GROUP_MEAN_RTOL = 2e-2
# The benchmark's own rate recomputation runs the same arithmetic as the
# program, so it must agree to rounding.
RECOMPUTE_RTOL = 1e-12


def seeded_rng(seed: int, *keys: int) -> np.random.Generator:
    """Independent random stream for ``(seed, *keys)``; the same arguments
    always give the same stream."""
    if seed < 0 or any(k < 0 for k in keys):
        raise ValueError("seeds and stream keys must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(keys)))


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Checks:
    """Collects correctness problems; the run is correct when none were found."""

    def __init__(self):
        self.problems: list = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def close(self, what: str, got: float, want: float, rtol: float) -> None:
        if not abs(got - want) <= rtol * max(1.0, abs(want)):
            self.fail(f"{what}: got {got!r}, expected {want!r} (rtol {rtol:g})")


@dataclass(frozen=True)
class Outcome:
    """What one item returned, as the benchmark judges it."""

    key: tuple
    rate: float         # per-cell sum rate, or link rate on single_link (bit/s/Hz)
    iterations: int
    converged: bool
    raised: bool        # the program raised NumericalFailureError
    over_budget: bool   # recomputed usage exceeds a budget by more than constraint_tol

    @property
    def failed(self) -> bool:
        return self.raised or self.over_budget


@dataclass(frozen=True)
class CheckedRecord(TrialRecord):
    """A trial record plus the benchmark's recomputation from the precoders
    that ``solve_system`` returned for it."""

    usage_ratio: float = math.nan       # max over BSs of usage / budget
    recomputed_rate: float = math.nan   # sum_rate / cluster size


class TrialChecker:
    """Stands in for ``experiment.run_trial`` while installed.

    It runs the run_trial it replaced, captures the (problem, solution) that
    ``solve_system`` returned inside it, and recomputes per-BS usage and the
    per-cell rate from the returned precoders.  Pool workers forked while it
    is installed inherit it, so the records they send back carry the check.
    """

    def __init__(self):
        self.tracer = None  # set while a traced section runs
        self._run_trial = None
        self._solve_system = None
        self._captured = None

    def _capture(self, *args, **kwargs):
        result = self._solve_system(*args, **kwargs)
        self._captured = result
        return result

    @contextmanager
    def installed(self):
        with Patches() as patches:
            self._run_trial = experiment.run_trial
            self._solve_system = experiment.solve_system
            patches.set(experiment, "run_trial", self)
            patches.set(experiment, "solve_system", self._capture)
            yield self

    def __call__(self, spec, value_index, trial_index, algorithm):
        if self.tracer is not None:
            self.tracer.begin_item((spec.master_seed, value_index, trial_index, algorithm))
        self._captured = None
        record = self._run_trial(spec, value_index, trial_index, algorithm)
        ratio = rate = math.nan
        if not record.failed and self._captured is not None:
            with self.tracer.span("bench.check") if self.tracer is not None else nullcontext():
                problem, solution = self._captured
                ratio = float(np.max(_constraint_usage(problem, solution.precoders) / problem.budgets))
                cells = experiment.scenario_for_value(
                    spec.scenario, spec.variable, spec.values[value_index]).cluster_size
                rate = _sum_rate(problem, solution.precoders) / cells
        self._captured = None
        values = {f.name: getattr(record, f.name) for f in fields(TrialRecord)}
        return CheckedRecord(**values, usage_ratio=ratio, recomputed_rate=rate)


def judge_record(key, record, constraint_tol: float, checks: Checks) -> Outcome:
    """Outcome of a checked sweep record; flags a recomputed rate that
    disagrees with the recorded one."""
    if not record.failed:
        if not isinstance(record, CheckedRecord) or math.isnan(record.recomputed_rate):
            checks.fail(f"item {key}: the budget check did not run")
        else:
            checks.close(f"item {key} recomputed rate", record.recomputed_rate,
                         record.per_cell_sum_rate, RECOMPUTE_RTOL)
    ratio = getattr(record, "usage_ratio", math.nan)
    return Outcome(
        key=key,
        rate=record.per_cell_sum_rate,
        iterations=record.iterations,
        converged=record.converged,
        raised=record.failed,
        over_budget=bool(ratio > 1.0 + constraint_tol),
    )


def write_config(path, config: dict):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=1, sort_keys=True)
    return experiment.parse_config(path)


class Workload:
    """What every workload shares: the warm-up item and its check against
    the stored reference."""

    name: str

    def canary_outcome(self, state, checks: Checks) -> Outcome:
        raise NotImplementedError

    def warm_up(self, state, reference: dict, checks: Checks) -> None:
        """Run the untimed warm-up (canary) item; it is the same on every
        seed, so its rate and iteration count must match the reference."""
        outcome = self.canary_outcome(state, checks)
        checks.close(f"{self.name} canary rate", outcome.rate, reference["canary_rate"],
                     CANARY_RTOL)
        if outcome.iterations != reference["canary_iterations"]:
            checks.fail(f"{self.name} canary took {outcome.iterations} iterations, "
                        f"expected {reference['canary_iterations']}")

    def finish(self, state, outcomes, reference: dict, checks: Checks) -> None:
        """Checks on the outcomes of a whole run; none by default."""


class Sweep(Workload):
    """A workload whose items are sweep trials of ``state.spec``."""

    canary: tuple  # (value index, trial, algorithm) of the warm-up item

    def canary_outcome(self, state, checks: Checks) -> Outcome:
        record = experiment.run_trial(state.spec, *self.canary)
        return judge_record(self.canary, record, state.spec.algorithm_config.constraint_tol, checks)


# ---------------------------------------------------------------------------
# fixed-panel sweeps: kappa_srm, snr_wsmmse
# ---------------------------------------------------------------------------

@dataclass
class PanelState:
    spec: object
    order: list


def _key_text(key) -> str:
    return "|".join(str(k) for k in key)


class PanelSweep(Sweep):
    """A fixed Monte Carlo panel (the sweep grid times ``trials`` draws from
    the stored master seed); the run seed sets the order of its items.

    Per-solve cost on these sweeps is heavy-tailed (a few solves run to the
    iteration cap), and a run sees only a few dozen solves, so a fresh panel
    per seed would make throughput a property of the draw.  A fixed panel
    also makes the stored per-group mean rates an exact reference.
    """

    workers = 1

    def __init__(self, name: str, config: dict, canary: tuple):
        self.name = name
        self.config = config
        self.canary = canary

    def setup(self, seed: int, out_dir) -> PanelState:
        spec = write_config(os.path.join(out_dir, f"{self.name}.json"), self.config)
        keys = [(vi, ti, alg) for vi in range(len(spec.values)) for ti in range(spec.trials)
                for alg in spec.algorithms]
        order = seeded_rng(seed).permutation(len(keys))
        return PanelState(spec=spec, order=[keys[i] for i in order])

    def units(self, state: PanelState, per_item: bool):
        if per_item:
            return ([key] for key in state.order)
        return itertools.repeat(state.order)

    def run_step(self, state: PanelState, key, workers: int, checks: Checks, tracer) -> list:
        tol = state.spec.algorithm_config.constraint_tol
        return [judge_record(key, experiment.run_trial(state.spec, *key), tol, checks)]

    def group_means(self, state: PanelState, outcomes) -> dict:
        """Mean rate of every (sweep value, algorithm) group that ``outcomes``
        cover completely, keyed ``"value|algorithm"``.  As in summary.csv,
        the mean is over the items that did not raise."""
        seen: dict = {}
        rates: dict = {}
        for o in outcomes:
            vi, ti, alg = o.key
            seen.setdefault((vi, alg), set()).add(ti)
            if not o.raised:
                rates.setdefault((vi, alg), {})[ti] = o.rate
        return {f"{state.spec.values[vi]:g}|{alg}":
                float(np.mean(list(rates.get((vi, alg), {}).values()) or [math.nan]))
                for (vi, alg), trials in seen.items() if len(trials) == state.spec.trials}

    def reference_of(self, state: PanelState, outcomes) -> dict:
        """The stored reference of one whole panel pass: group mean rates
        and the items that fail or do not converge."""
        return {
            "group_mean_rate": dict(sorted(self.group_means(state, outcomes).items())),
            "failed": sorted(_key_text(o.key) for o in outcomes if o.failed),
            "unconverged": sorted(_key_text(o.key) for o in outcomes if not o.converged),
        }

    def finish(self, state: PanelState, outcomes, reference: dict, checks: Checks) -> None:
        """Every item must fail and converge exactly as in the reference, and
        every completed group's mean rate must match it."""
        for group, got in self.group_means(state, outcomes).items():
            checks.close(f"{self.name} group {group} mean rate", got,
                         reference["group_mean_rate"][group], GROUP_MEAN_RTOL)
        failed, unconverged = set(reference["failed"]), set(reference["unconverged"])
        for o in outcomes:
            key = _key_text(o.key)
            if o.failed != (key in failed):
                checks.fail(f"{self.name} item {key}: failed={o.failed}, unlike the reference")
            if o.converged == (key in unconverged):
                checks.fail(f"{self.name} item {key}: converged={o.converged}, unlike the reference")


# ---------------------------------------------------------------------------
# sector_drops: the sectorization / CDF path through the process pool
# ---------------------------------------------------------------------------

@dataclass
class SectorState:
    seed: int
    workdir: str
    spec: object
    emit_bytes: list


class SectorDrops(Sweep):
    """Batches of fresh drops, each run through parse_config -> run_sweep ->
    emit_records_csv / emit_summary_csv -> read_records_csv -> emit_cdf_csv.
    The solver stops after two iterations, so per-item cost hardly depends
    on the draw and a fresh batch per seed keeps the runs comparable."""

    name = "sector_drops"
    workers = 2
    trials_per_batch = 20
    config = {
        "sweep": {"variable": "sectors", "values": [1, 3, 6], "trials": trials_per_batch,
                  "algorithms": ["min_leakage"], "master_seed": 0},
        "scenario": {"cluster_size": 7, "users_per_cell": 1, "nt": 6, "nr": 2, "streams": 2,
                     "cooperation_factor": 2},
        "algorithm": {},
    }
    canary = (0, 0, "min_leakage")  # from master seed 0

    def setup(self, seed: int, out_dir) -> SectorState:
        workdir = os.path.join(out_dir, self.name)
        os.makedirs(workdir, exist_ok=True)
        spec = write_config(os.path.join(workdir, "config.json"), self.config)
        return SectorState(seed=seed, workdir=workdir, spec=spec, emit_bytes=[])

    def batch_seed(self, seed: int, batch: int) -> int:
        return int(seeded_rng(seed, batch).integers(2**31))

    def units(self, state: SectorState, per_item: bool):
        return ([batch] for batch in itertools.count())

    def run_step(self, state: SectorState, batch: int, workers: int, checks: Checks,
                 tracer) -> list:
        config = copy.deepcopy(self.config)
        config["sweep"]["master_seed"] = self.batch_seed(state.seed, batch)
        spec = write_config(os.path.join(state.workdir, "config.json"), config)
        records = experiment.run_sweep(spec, workers=workers)
        paths = {name: os.path.join(state.workdir, f"{name}.csv")
                 for name in ("records", "summary", "cdf")}
        experiment.emit_records_csv(records, paths["records"])
        experiment.emit_summary_csv(records, paths["summary"])
        readback = experiment.read_records_csv(paths["records"])
        experiment.emit_cdf_csv(readback, paths["cdf"])
        state.emit_bytes.append(sum(os.path.getsize(p) for p in paths.values()))

        if len(readback) != len(records):
            checks.fail(f"batch {batch}: read back {len(readback)} of {len(records)} records")
        for mine, back in zip(records, readback):
            for f in fields(TrialRecord):
                if f.name == "wall_time":
                    continue
                a, b = getattr(mine, f.name), getattr(back, f.name)
                if isinstance(a, float):
                    # records.csv keeps 12 significant digits
                    same = math.isclose(a, b, rel_tol=1e-11) or (math.isnan(a) and math.isnan(b))
                else:
                    same = a == b
                if not same:
                    checks.fail(f"batch {batch}: records.csv round trip changed {f.name}")
                    break
        value_index = {float(v): i for i, v in enumerate(spec.values)}
        tol = spec.algorithm_config.constraint_tol
        return [judge_record((batch, value_index[r.sweep_value], r.trial, r.algorithm), r, tol, checks)
                for r in records]


# ---------------------------------------------------------------------------
# single_link: single_user.solve_multi_constraint on random links
# ---------------------------------------------------------------------------

@dataclass
class LinkState:
    links: list


class SingleLink(Workload):
    """Random 4x2 links at 10 dB with one power constraint per transmit
    antenna, solved by the dual subgradient method."""

    name = "single_link"
    workers = 1
    nt, nr, streams = 4, 2, 2
    snr_db = 10.0
    total_power = 1.0
    links_per_run = 1024
    constraint_tol = 1e-2   # solve_multi_constraint's default
    canary_seed = 0

    def make_link(self, seed: int, index: int) -> SingleUserProblem:
        rng = seeded_rng(seed, index)
        scale = math.sqrt(10.0 ** (self.snr_db / 10.0) / 2.0)
        channel = scale * (rng.standard_normal((self.nr, self.nt))
                           + 1j * rng.standard_normal((self.nr, self.nt)))
        constraints = tuple(np.diag(np.eye(self.nt)[i]).astype(complex) for i in range(self.nt))
        return SingleUserProblem(
            channel=channel,
            noise_cov=np.eye(self.nr, dtype=complex),
            constraints=constraints,
            budgets=np.full(self.nt, self.total_power / self.nt),
            weights=np.ones(self.streams),
            streams=self.streams,
        )

    def setup(self, seed: int, out_dir) -> LinkState:
        return LinkState(links=[self.make_link(seed, i) for i in range(self.links_per_run)])

    def solve(self, key, problem: SingleUserProblem, checks: Checks, tracer) -> Outcome:
        if tracer is not None:
            tracer.begin_item(key)
        try:
            result = single_user.solve_multi_constraint(problem)
        except NumericalFailureError:
            return Outcome(key, math.nan, 0, False, True, False)
        with tracer.span("bench.check") if tracer is not None else nullcontext():
            b = result.precoder
            bbh = b @ b.conj().T
            usage = np.array([float(np.trace(phi @ bbh).real) for phi in problem.constraints])
            ratio = float(np.max(usage / problem.budgets))
            rinv_h = np.linalg.solve(problem.noise_cov, problem.channel)
            gram = b.conj().T @ problem.channel.conj().T @ rinv_h @ b
            gram = 0.5 * (gram + gram.conj().T)
            eye = np.eye(problem.streams)
            sign, logdet = np.linalg.slogdet(eye + gram)
            rate = float(logdet) / math.log(2.0) if sign.real > 0 else math.nan
            wsmse = float(np.trace(np.diag(problem.weights) @ np.linalg.inv(eye + gram)).real)
        checks.close(f"link {key} weighted MSE", result.wsmse, wsmse, 1e-9)
        return Outcome(key, rate, result.iterations, bool(result.converged), False,
                       ratio > 1.0 + self.constraint_tol)

    def canary_outcome(self, state: LinkState, checks: Checks) -> Outcome:
        return self.solve(("canary",), self.make_link(self.canary_seed, 0), checks, None)

    def units(self, state: LinkState, per_item: bool):
        return ([index] for index in itertools.cycle(range(len(state.links))))

    def run_step(self, state: LinkState, index: int, workers: int, checks: Checks,
                 tracer) -> list:
        return [self.solve((index,), state.links[index], checks, tracer)]


# The paper's cooperation sweep.
KAPPA_SRM = PanelSweep(
    name="kappa_srm",
    config={
        "sweep": {"variable": "kappa", "values": [1, 2, 3, 5], "trials": 2,
                  "algorithms": ["dmmse", "emmseia", "pwf"], "master_seed": 2026},
        "scenario": {"cluster_size": 5, "users_per_cell": 2, "nt": 4, "nr": 2, "streams": 2,
                     "boundary_snr_db": 20.0},
        "algorithm": {"objective": "srm", "max_outer": 600, "inner_tol": 1e-5},
    },
    canary=(3, 0, "pwf"),
)

# Tiny matrices and long pricing loops: per-call overhead dominates.  Trial 6
# at 10 dB is the over-budget dmmse solve the benchmark must count as failed.
SNR_WSMMSE = PanelSweep(
    name="snr_wsmmse",
    config={
        "sweep": {"variable": "snr_db", "values": [0, 10, 20, 30], "trials": 8,
                  "algorithms": ["dmmse", "emmseia"], "master_seed": 11},
        "scenario": {"cluster_size": 3, "users_per_cell": 1, "nt": 4, "nr": 2, "streams": 2,
                     "cooperation_factor": 2},
        "algorithm": {"objective": "wsmmse"},
    },
    canary=(3, 5, "emmseia"),
)

WORKLOADS = {w.name: w for w in (KAPPA_SRM, SectorDrops(), SNR_WSMMSE, SingleLink())}
