"""Linear precoder/equalizer design for multicell MIMO downlinks with
partial base-station cooperation, plus the Monte Carlo harness used to
compare the algorithms on hexagonal cellular layouts."""

from .algorithms import (
    AlgorithmConfig,
    DualNetworkState,
    LeakageState,
    dmmse_solve,
    emmseia_solve,
    min_leakage_solve,
    pwf_fixed_point_residual,
    pwf_solve,
    solve_system,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    NumericalFailureError,
    SingularMatrixError,
)
from .linalg import (
    PowerAllocation,
    SpectrumDecomposition,
    hermitian_top_eigs,
    psd_inv_sqrt,
    thin_svd,
    waterfill_budget,
    waterfill_eval,
)
from .model import (
    BeamformerSolution,
    InterferenceProblem,
    PartialCooperationSystem,
    build_interference_problem,
    constraint_usage,
    interference_covariance,
    mmse_equalizer,
    mse_matrix,
    mse_matrix_mmse,
    sum_rate,
    wsmse_objective,
)
from .scenario import (
    ChannelRealization,
    GeometryRealization,
    ScenarioConfig,
    antenna_gain_db,
    assign_cooperation,
    build_geometry,
    draw_channels,
    realize,
    whiten_out_of_cluster,
)
from .single_user import (
    SingleUserProblem,
    SingleUserSolution,
    kkt_residual,
    lagrangian_minimizer,
    solve_multi_constraint,
    solve_single_constraint,
)

__version__ = "0.1.0"
