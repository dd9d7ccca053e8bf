"""All four multiuser beamformer designs on one cellular draw.

Three cells, two cooperating base stations per user, 20 dB boundary SNR.
Each design runs in its rate-oriented mode; we report the per-cell sum
rate, power-budget usage, and what each solver's structural identity looks
like at its fixed point (diagonal error covariances, self-consistent
covariance equations, zero leakage growth).
"""

import numpy as np

from netmimo import (
    AlgorithmConfig,
    ScenarioConfig,
    build_interference_problem,
    constraint_usage,
    dmmse_solve,
    emmseia_solve,
    min_leakage_solve,
    mse_matrix_mmse,
    pwf_fixed_point_residual,
    pwf_solve,
    realize,
    sum_rate,
)
from netmimo.algorithms import offdiag_mass

scenario = ScenarioConfig(cluster_size=3, users_per_cell=1, nt=4, nr=2, streams=2,
                          cooperation_factor=2, boundary_snr_db=20.0)
system = realize(scenario, np.random.default_rng(42))
problem = build_interference_problem(system)
print(f"serving sets: {system.serving_sets}")
print(f"stacked transmit dims: {problem.tx_dims}\n")

runs = {}
runs["dmmse"] = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse", objective="srm"))
runs["emmseia"] = emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia", objective="srm"))
runs["pwf"] = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
runs["min_leakage"] = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))

print(f"{'design':<12} {'per-cell rate':>13} {'max usage':>10} {'iters':>6}  note")
for name, sol in runs.items():
    rate = sum_rate(problem, sol.precoders) / scenario.cluster_size
    usage = constraint_usage(problem, sol.precoders)
    if name == "dmmse":
        off = max(offdiag_mass(mse_matrix_mmse(problem, sol.precoders, k))
                  for k in range(problem.num_users))
        note = f"error covariances diagonal to {off:.1e}"
    elif name == "pwf":
        note = f"covariance equations reproduce to {pwf_fixed_point_residual(problem, sol.diagnostics['state']):.1e}"
    elif name == "min_leakage":
        note = f"residual leakage {sol.trace[-1]:.3e}"
    else:
        note = f"multipliers {np.round(sol.multipliers, 3)}"
    print(f"{name:<12} {rate:13.3f} {usage.max():10.4f} {sol.iterations:6d}  {note}")

print("\nweighted-MSE mode (fixed identity weights):")
for name, solver in (("dmmse", dmmse_solve), ("emmseia", emmseia_solve)):
    sol = solver(problem, AlgorithmConfig(algorithm=name, objective="wsmmse"))
    mse = sum(float(np.trace(mse_matrix_mmse(problem, sol.precoders, k)).real)
              for k in range(problem.num_users))
    print(f"  {name:<8} sum MSE {mse:.4f} after {sol.iterations} iterations "
          f"(converged: {sol.converged})")
