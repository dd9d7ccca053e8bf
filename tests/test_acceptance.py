"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures (run pytest -s to see them inline).

The two Monte Carlo trend criteria follow the cellular experiment shapes
(M=3 kappa=2 SNR sweep; M=5 kappa sweep with two users per cell) at 50
trials.  The kappa sweep reuses one channel draw per trial across kappa
values (common random numbers) so the increment comparison is sharp; the
SNR sweep runs through the full harness.  The byte-identity criterion runs
the SNR-sweep configuration end to end twice at reduced trial count
(determinism does not depend on the number of trials).
"""

import time

import numpy as np
import pytest

from netmimo import (
    AlgorithmConfig,
    ScenarioConfig,
    build_interference_problem,
    constraint_usage,
    dmmse_solve,
    emmseia_solve,
    min_leakage_solve,
    mmse_equalizer,
    mse_matrix,
    mse_matrix_mmse,
    pwf_fixed_point_residual,
    pwf_solve,
    realize,
    solve_multi_constraint,
    solve_single_constraint,
    sum_rate,
)
from netmimo.algorithms import offdiag_mass
from netmimo.experiment import (
    SweepSpec,
    emit_records_csv,
    run_sweep,
    trial_rng,
)
from netmimo.single_user import SingleUserProblem, precoder_wsmse

RNG_ROOT = 20260809


def report(criterion, detail):
    print(f"criterion {criterion}: PASS — {detail}")


def cellular_instance(seed, **kwargs):
    defaults = dict(cluster_size=3, users_per_cell=1, nt=4, nr=2, streams=2,
                    cooperation_factor=2, boundary_snr_db=20.0, seed=seed)
    defaults.update(kwargs)
    system = realize(ScenarioConfig(**defaults))
    return system, build_interference_problem(system)


def random_single_user(rng):
    mt = int(rng.integers(2, 5))
    h = rng.standard_normal((2, mt)) + 1j * rng.standard_normal((2, mt))
    w = rng.uniform(0.5, 2.0, 2)
    return SingleUserProblem(
        channel=h, noise_cov=np.eye(2), constraints=(np.eye(mt, dtype=complex),),
        budgets=np.array([float(rng.uniform(0.5, 3.0))]), weights=w, streams=2,
    )


def batch_feasible_wsmse(problem, rng, count):
    """Weighted MSE of `count` random precoders scaled onto the budget
    boundary (identity constraint weight), evaluated in closed form."""
    mt = problem.channel.shape[1]
    budget = float(problem.budgets[0])
    r = problem.quadratic_form()
    b = rng.standard_normal((count, mt, 2)) + 1j * rng.standard_normal((count, mt, 2))
    norms = np.sqrt(np.einsum("nij,nij->n", b.conj(), b).real)
    b *= (np.sqrt(budget) / norms)[:, None, None]
    g = np.einsum("nji,jk,nkl->nil", b.conj(), r, b)
    a11 = 1.0 + g[:, 0, 0].real
    a22 = 1.0 + g[:, 1, 1].real
    a12 = g[:, 0, 1]
    det = a11 * a22 - (a12 * a12.conj()).real
    w = problem.weights
    return (w[0] * a22 + w[1] * a11) / det


def grid_oracle(problem, points=5000):
    gains = np.sort(np.linalg.eigvalsh(problem.quadratic_form()).real)[::-1][:2]
    gains = np.maximum(gains, 1e-300)
    budget = float(problem.budgets[0])
    w = np.sort(problem.weights)[::-1]  # largest weight on the strongest direction
    p1 = np.linspace(0.0, budget, points + 1)
    values = w[0] / (1.0 + p1 * gains[0]) + w[1] / (1.0 + (budget - p1) * gains[1])
    return float(np.min(values))


def test_criterion_1_single_user_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(RNG_ROOT)
    worst_gap = 0.0
    for _ in range(10):
        problem = random_single_user(rng)
        sol = solve_single_constraint(problem)
        probes = batch_feasible_wsmse(problem, rng, 10_000)
        assert sol.wsmse <= float(np.min(probes)) + 1e-9
        oracle = grid_oracle(problem)
        gap = abs(sol.wsmse - oracle) / oracle
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"10 instances, worst grid gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_2_dual_solver_consistency():
    rng = np.random.default_rng(RNG_ROOT + 1)
    worst = 0.0
    for _ in range(10):
        problem = random_single_user(rng)
        ref = solve_single_constraint(problem)
        dual = solve_multi_constraint(problem)
        gap = abs(dual.wsmse - ref.wsmse) / ref.wsmse
        worst = max(worst, gap)
        assert gap <= 0.01
        # weak duality against the feasible closed-form primal value
        assert all(value <= ref.wsmse + 1e-9 for value in dual.dual_values)
    report(2, f"10 instances, worst closed-form gap {worst:.2e}, duality bound held at every iterate")


def test_criterion_3_mse_algebra_identity():
    rng = np.random.default_rng(RNG_ROOT + 2)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        nt, nr, d = 3, 2, int(rng.integers(1, 3))
        chans = tuple(
            tuple(rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))
                  for _ in range(k))
            for _ in range(k)
        )
        from netmimo import InterferenceProblem
        problem = InterferenceProblem(
            channels=chans,
            constraints=tuple(
                tuple(np.eye(nt, dtype=complex) if m == i else np.zeros((nt, nt), dtype=complex)
                      for m in range(k))
                for i in range(k)
            ),
            budgets=np.ones(k), streams=(d,) * k,
            mse_weights=tuple(np.eye(d) for _ in range(k)),
        )
        precoders = [0.6 * (rng.standard_normal((nt, d)) + 1j * rng.standard_normal((nt, d)))
                     for _ in range(k)]
        equalizers = [mmse_equalizer(problem, precoders, i) for i in range(k)]
        for i in range(k):
            direct = mse_matrix(problem, precoders, equalizers, i)
            closed = mse_matrix_mmse(problem, precoders, i)
            worst = max(worst, float(np.linalg.norm(direct - closed)))
            assert np.linalg.norm(direct - closed) <= 1e-10
    report(3, f"100 instances, worst Frobenius gap {worst:.2e}")


def test_criterion_4_dmmse_diagonalization_and_descent():
    worst_off = 0.0
    worst_rise = -np.inf
    for seed in range(20):
        _, problem = cellular_instance(seed)
        sol = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse"))
        assert sol.converged
        for k in range(problem.num_users):
            off = offdiag_mass(mse_matrix_mmse(problem, sol.precoders, k))
            worst_off = max(worst_off, off)
            assert off <= 1e-8
        # descent of the inner alternation at frozen multipliers: the priced
        # weighted-MSE trace is non-increasing within 1e-9
        frozen = AlgorithmConfig(algorithm="dmmse", subgradient_step=0.0,
                                 lambda_init=0.5, max_outer=100, max_inner=40)
        inner = dmmse_solve(problem, frozen)
        priced = inner.diagnostics["priced_trace"]
        rises = [b - a for a, b in zip(priced, priced[1:])]
        worst_rise = max(worst_rise, max(rises))
        assert all(r <= 1e-9 for r in rises)
    report(4, f"20 instances, worst off-diagonal mass {worst_off:.2e}, "
              f"worst trace rise {worst_rise:.2e}")


def test_criterion_5_feasibility_all_algorithms():
    worst = {}
    for seed in range(20):
        system, problem = cellular_instance(seed + 100)
        runs = {
            "dmmse": dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse")),
            "emmseia": emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia")),
            "pwf": pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm")),
            "min_leakage": min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage")),
        }
        for name, sol in runs.items():
            usage = constraint_usage(problem, sol.precoders)
            violation = float(np.max((usage - problem.budgets) / problem.budgets))
            worst[name] = max(worst.get(name, -np.inf), violation)
            assert violation <= 0.01, (name, seed, violation)
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(5, f"20 instances per algorithm, worst violations: {detail}")


def test_criterion_6_pwf_structure():
    worst = 0.0
    for seed in range(10):
        _, problem = cellular_instance(seed + 200)
        sol = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
        assert sol.converged
        residual = pwf_fixed_point_residual(problem, sol.diagnostics["state"])
        worst = max(worst, residual)
        assert residual <= 1e-6
    report(6, f"10 instances, worst re-evaluation residual {worst:.2e}")


def fig2_spec(trials, seed=RNG_ROOT + 7):
    return SweepSpec(
        variable="snr_db",
        values=(10.0, 20.0),
        trials=trials,
        algorithms=("dmmse", "emmseia", "pwf"),
        scenario=ScenarioConfig(cluster_size=3, users_per_cell=1, nt=4, nr=2, streams=2,
                                cooperation_factor=2),
        algorithm_config=AlgorithmConfig(objective="srm", max_outer=800, inner_tol=1e-5),
        master_seed=seed,
    ).validate()


def test_criterion_7_snr_trend():
    started = time.perf_counter()
    records = run_sweep(fig2_spec(trials=50))
    assert not any(r.failed for r in records)
    lines = []
    for snr in (10.0, 20.0):
        means = {}
        for alg in ("dmmse", "emmseia", "pwf"):
            rates = [r.per_cell_sum_rate for r in records
                     if r.sweep_value == snr and r.algorithm == alg]
            assert len(rates) == 50
            means[alg] = float(np.mean(rates))
        assert means["dmmse"] >= means["emmseia"]
        assert abs(means["dmmse"] - means["pwf"]) <= 0.05 * means["pwf"]
        lines.append(f"{snr:g}dB dmmse {means['dmmse']:.3f} emmseia {means['emmseia']:.3f} "
                     f"pwf {means['pwf']:.3f}")
    for r in records:
        if r.converged:
            assert r.max_constraint_violation <= 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(7, "; ".join(lines) + f"; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_cooperation_trend():
    # common channel draws per trial across kappa values sharpen the
    # increment comparison
    from dataclasses import replace

    kappas = (1, 2, 3, 5)
    solvers = {"dmmse": dmmse_solve, "emmseia": emmseia_solve, "pwf": pwf_solve}
    algs = tuple(solvers)
    trials = 50
    sums = {(a, k): 0.0 for a in algs for k in kappas}
    base = AlgorithmConfig(objective="srm", max_outer=600, inner_tol=1e-5)
    for trial in range(trials):
        state = trial_rng(RNG_ROOT + 8, 0, trial).bit_generator.state
        for kappa in kappas:
            scenario = ScenarioConfig(cluster_size=5, users_per_cell=2, nt=4, nr=2,
                                      streams=2, cooperation_factor=kappa,
                                      boundary_snr_db=20.0)
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            system = realize(scenario, rng)
            problem = build_interference_problem(system)
            for alg, solver in solvers.items():
                sol = solver(problem, replace(base, algorithm=alg))
                usage = constraint_usage(problem, sol.precoders)
                assert float(np.max((usage - problem.budgets) / problem.budgets)) <= 0.01
                sums[(alg, kappa)] += sum_rate(problem, sol.precoders) / 5.0
    means = {key: value / trials for key, value in sums.items()}
    for alg in algs:
        series = [means[(alg, k)] for k in kappas]
        for lo, hi in zip(series, series[1:]):
            assert hi >= lo * 0.98  # non-decreasing within the 2% noise margin
    inc12 = means[("dmmse", 2)] - means[("dmmse", 1)]
    inc35 = means[("dmmse", 5)] - means[("dmmse", 3)]
    assert inc35 < inc12
    detail = "; ".join(
        f"{alg} " + "/".join(f"{means[(alg, k)]:.3f}" for k in kappas) for alg in algs
    )
    report(8, f"kappa 1/2/3/5 means {detail}; dmmse increments {inc12:.3f} -> {inc35:.3f}")


def test_criterion_9_single_stream_trend():
    trials = 50
    rates = {"dmmse": [], "pwf": []}
    for trial in range(trials):
        rng = trial_rng(RNG_ROOT + 9, 0, trial)
        scenario = ScenarioConfig(cluster_size=3, users_per_cell=1, nt=4, nr=2, streams=1,
                                  cooperation_factor=2, boundary_snr_db=20.0)
        system = realize(scenario, rng)
        problem = build_interference_problem(system)
        cfg = dict(objective="srm", max_outer=600, inner_tol=1e-5)
        sol_d = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse", **cfg))
        sol_p = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", **cfg))
        rates["dmmse"].append(sum_rate(problem, sol_d.precoders) / 3.0)
        rates["pwf"].append(sum_rate(problem, sol_p.precoders) / 3.0)
    mean_d = float(np.mean(rates["dmmse"]))
    mean_p = float(np.mean(rates["pwf"]))
    stderr_p = float(np.std(rates["pwf"], ddof=1)) / np.sqrt(trials)
    assert mean_d >= mean_p - stderr_p
    report(9, f"single-stream means dmmse {mean_d:.3f} vs pwf {mean_p:.3f} "
              f"(1 SE = {stderr_p:.3f})")


def test_criterion_10_min_leakage_descent():
    worst_rise = -np.inf
    for seed in range(20):
        system, _ = cellular_instance(seed + 300)
        sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))
        trace = sol.trace
        rises = [b - a for a, b in zip(trace, trace[1:])]
        if rises:
            worst_rise = max(worst_rise, max(rises))
            assert all(r <= 1e-12 for r in rises)
        assert trace[-1] <= trace[0] + 1e-12
        state = sol.diagnostics["state"]
        for user_factors in state.factors:
            for f in user_factors:
                assert np.linalg.norm(f.conj().T @ f - np.eye(f.shape[1])) <= 1e-10
        for a in state.equalizers:
            assert np.linalg.norm(a.conj().T @ a - np.eye(a.shape[1])) <= 1e-10
        # orthonormality also holds at intermediate iterates
        partial = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage", max_outer=1))
        for user_factors in partial.diagnostics["state"].factors:
            for f in user_factors:
                assert np.linalg.norm(f.conj().T @ f - np.eye(f.shape[1])) <= 1e-10
    report(10, f"20 instances, worst leakage rise {worst_rise:.2e}")


def test_criterion_11_deterministic_csv(tmp_path):
    spec = fig2_spec(trials=4)
    first, second = tmp_path / "run1.csv", tmp_path / "run2.csv"
    emit_records_csv(run_sweep(spec), first)
    emit_records_csv(run_sweep(spec), second)
    assert first.read_bytes() == second.read_bytes()
    report(11, f"two executions byte-identical ({first.stat().st_size} bytes)")
