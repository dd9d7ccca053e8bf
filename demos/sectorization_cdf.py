"""Sectorized cells and the rate distribution.

Six transmit antennas per base station split over 1 or 3 sectors; six users
per cell dropped on a fixed ring at two thirds of the cell radius.  We
collect the empirical CDF of the per-cell sum rate over independent draws
and compare the sectorization gain for an uncoordinated single cell.
"""

from netmimo import AlgorithmConfig, ScenarioConfig
from netmimo.experiment import SweepSpec, compute_cdf, emit_cdf_csv, run_sweep

spec = SweepSpec(
    variable="sectors",
    values=(1, 3),
    trials=8,
    algorithms=("dmmse",),
    scenario=ScenarioConfig(cluster_size=1, users_per_cell=6, nt=6, nr=2, streams=2,
                            cooperation_factor=1, boundary_snr_db=20.0,
                            user_placement="fixed_radius", placement_fraction=2.0 / 3.0),
    algorithm_config=AlgorithmConfig(objective="srm", max_outer=400, inner_tol=1e-5),
    master_seed=7,
)

records = run_sweep(spec)
for sectors in spec.values:
    group = [r for r in records if r.sweep_value == sectors]
    points, mean = compute_cdf(group)
    deciles = [points[int(q * (len(points) - 1))][0] for q in (0.1, 0.5, 0.9)]
    print(f"S={sectors}: mean per-cell rate {mean:.3f}, deciles "
          + " / ".join(f"{d:.2f}" for d in deciles))

emit_cdf_csv(records, "sectorization_cdf.csv")
print("\nwrote sectorization_cdf.csv (plot rate vs cum_fraction per group)")
