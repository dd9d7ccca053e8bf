"""Single-user weighted-MMSE precoder design under trace constraints.

With one constraint the optimum is closed form: whiten the constraint,
keep the leading eigendirections of the whitened channel quadratic form
R = H^H Omega^{-1} H, and waterfill the per-stream powers against the
budget.  With several constraints the same machinery drives a dual
subgradient method: for multipliers lam, the Lagrangian minimizer is the
closed form with aggregate weight sum_m lam_m Phi_m at unit water level,
and lam ascends on the constraint residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NumericalFailureError
from .linalg import hermitian_top_eigs, psd_inv_sqrt, waterfill_budget, waterfill_eval

# Bounds of the power-price multipliers of every dual loop in netmimo.
LAMBDA_FLOOR = 1e-9
LAMBDA_CAP = 1e12
# Gains below GAIN_RTOL * max(1, gain_max) carry no usable signal; their
# streams keep zero precoder columns so d is preserved.
GAIN_RTOL = 1e-12


@dataclass(frozen=True)
class SingleUserProblem:
    """One transmitter/receiver pair with M trace constraints.

    channel    -- H, (m_r, m_t)
    noise_cov  -- Omega, (m_r, m_r) Hermitian PD (noise plus fixed interference)
    constraints-- PSD weights Phi_m, each (m_t, m_t); their sum must be PD
    budgets    -- (M,)
    weights    -- per-stream non-negative MSE weights, length d
    streams    -- d
    """

    channel: np.ndarray
    noise_cov: np.ndarray
    constraints: tuple
    budgets: np.ndarray
    weights: np.ndarray
    streams: int

    def __post_init__(self):
        object.__setattr__(self, "channel", np.asarray(self.channel, dtype=complex))
        object.__setattr__(self, "noise_cov", np.asarray(self.noise_cov, dtype=complex))
        object.__setattr__(self, "constraints", tuple(np.asarray(p, dtype=complex) for p in self.constraints))
        object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        mr, mt = self.channel.shape
        if self.noise_cov.shape != (mr, mr):
            raise ContractViolationError("noise covariance must match the receive dimension")
        if len(self.constraints) != self.budgets.size or not self.constraints:
            raise ContractViolationError("one budget per constraint matrix is required")
        for phi in self.constraints:
            if phi.shape != (mt, mt):
                raise ContractViolationError("constraint weights must be square with the transmit dimension")
        if self.weights.shape != (self.streams,):
            raise ContractViolationError("one weight per stream is required")
        if np.any(self.weights < 0):
            raise ContractViolationError("stream weights must be non-negative")
        if not 1 <= self.streams <= min(mr, mt):
            raise ContractViolationError("streams must lie in [1, min(m_r, m_t)]")

    @property
    def num_constraints(self) -> int:
        return int(self.budgets.size)

    def quadratic_form(self) -> np.ndarray:
        """R = H^H Omega^{-1} H."""
        r = self.channel.conj().T @ np.linalg.solve(self.noise_cov, self.channel)
        return 0.5 * (r + r.conj().T)


@dataclass(frozen=True)
class SingleUserSolution:
    """Closed-form result: precoder, its objective value, and the spectrum
    it was built from (gains, per-stream powers, water level)."""

    precoder: np.ndarray
    wsmse: float
    gains: np.ndarray
    powers: np.ndarray
    water_level: float


@dataclass
class DualIterationResult:
    """Dual subgradient outcome with the per-iteration bookkeeping needed to
    audit weak duality and feasibility."""

    precoder: np.ndarray
    multipliers: np.ndarray
    wsmse: float
    usage: np.ndarray
    residuals: list = field(default_factory=list)
    dual_values: list = field(default_factory=list)
    wsmse_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    binding: bool = False


def _whitened_spectrum(problem: SingleUserProblem, phi: np.ndarray):
    """Eigen-structure of S R S for S = phi^{-1/2}; returns (S, gains, basis)."""
    s = psd_inv_sqrt(phi)
    r = problem.quadratic_form()
    m = s @ r @ s
    spec = hermitian_top_eigs(0.5 * (m + m.conj().T), problem.streams)
    return s, spec.values, spec.basis


def _assemble(s: np.ndarray, basis: np.ndarray, powers: np.ndarray) -> np.ndarray:
    return s @ (basis * np.sqrt(np.maximum(powers, 0.0)))


def _active_gains(gains: np.ndarray) -> np.ndarray:
    return gains > GAIN_RTOL * max(1.0, float(np.max(gains, initial=0.0)))


def active_residual(usage: np.ndarray, budgets: np.ndarray, lam: np.ndarray) -> float:
    """Dual residual over active coordinates: constraints that are violated
    or carry a meaningfully positive multiplier.  Slack constraints whose
    multiplier sits at the floor are complementary and contribute nothing."""
    active = (lam > 10 * LAMBDA_FLOOR) | (usage > budgets)
    if not np.any(active):
        return 0.0
    rel = np.abs(usage - budgets) / np.maximum(budgets, 1e-300)
    return float(np.max(rel[active]))


def weight_rank_order(weights: np.ndarray) -> np.ndarray:
    """Stream indices by descending weight.  The optimal stream-to-direction
    assignment rides the largest weight on the strongest eigendirection
    (rearrangement: the active-stream cost sums sqrt(w_i / g_i))."""
    return np.argsort(-np.asarray(weights), kind="stable")


def solve_single_constraint(problem: SingleUserProblem) -> SingleUserSolution:
    """Globally optimal precoder under a single trace constraint.

    B = Phi^{-1/2} U diag(sqrt p), U the top-d eigenvectors of
    Phi^{-1/2} R Phi^{-1/2} with gains g_1 >= ... >= g_d, and p waterfilled
    so that tr{Phi B B^H} = sum_i p_i equals the budget.  A zero channel
    yields B = 0 with objective sum_i w_i.
    """
    if problem.num_constraints != 1:
        raise ContractViolationError("solve_single_constraint requires exactly one constraint")
    budget = float(problem.budgets[0])
    if budget <= 0:
        raise ContractViolationError("the budget must be positive")
    s, gains, basis = _whitened_spectrum(problem, problem.constraints[0])
    order = weight_rank_order(problem.weights)
    paired_w = problem.weights[order]         # descending, aligned with gains
    active = _active_gains(gains)
    ranked_powers = np.zeros_like(gains)
    level = float("inf")
    if np.any(active):
        alloc = waterfill_budget(paired_w[active], gains[active], budget)
        ranked_powers[active] = alloc.levels
        level = alloc.multiplier
    precoder = np.zeros((problem.channel.shape[1], problem.streams), dtype=complex)
    precoder[:, order] = _assemble(s, basis, ranked_powers)
    stream_gains = np.zeros_like(gains)
    stream_powers = np.zeros_like(gains)
    stream_gains[order] = gains
    stream_powers[order] = ranked_powers
    wsmse = float(np.sum(problem.weights / (1.0 + stream_powers * stream_gains)))
    return SingleUserSolution(precoder=precoder, wsmse=wsmse, gains=stream_gains,
                              powers=stream_powers, water_level=level)


def lagrangian_minimizer(problem: SingleUserProblem, phi_agg: np.ndarray) -> np.ndarray:
    """Minimizer of the power-priced objective
    tr{W (I + B^H R B)^{-1}} + tr{phi_agg B B^H}: the single-constraint form
    with aggregate weight ``phi_agg`` and unit water level."""
    s, gains, basis = _whitened_spectrum(problem, phi_agg)
    order = weight_rank_order(problem.weights)
    paired_w = problem.weights[order]
    active = _active_gains(gains)
    powers = np.zeros_like(gains)
    if np.any(active):
        powers[active] = waterfill_eval(paired_w[active], gains[active], 1.0).levels
    precoder = np.zeros((problem.channel.shape[1], problem.streams), dtype=complex)
    precoder[:, order] = _assemble(s, basis, powers)
    return precoder


def precoder_wsmse(problem: SingleUserProblem, precoder: np.ndarray) -> float:
    """tr{W (I + B^H R B)^{-1}}: the objective with the MMSE receiver substituted."""
    r = problem.quadratic_form()
    g = precoder.conj().T @ r @ precoder
    e = np.linalg.inv(np.eye(problem.streams) + 0.5 * (g + g.conj().T))
    return float(np.trace(np.diag(problem.weights) @ e).real)


def constraint_usage_single(problem: SingleUserProblem, precoder: np.ndarray) -> np.ndarray:
    bbh = precoder @ precoder.conj().T
    return np.array([float(np.trace(phi @ bbh).real) for phi in problem.constraints])


def lagrangian_value(problem: SingleUserProblem, precoder: np.ndarray, multipliers) -> float:
    """L(B; lam) = tr{W (I + B^H R B)^{-1}} + sum_m lam_m (tr{Phi_m B B^H} - P_m)."""
    usage = constraint_usage_single(problem, precoder)
    return precoder_wsmse(problem, precoder) + float(np.dot(multipliers, usage - problem.budgets))


def solve_multi_constraint(
    problem: SingleUserProblem,
    step: float = 0.1,
    max_outer: int = 2000,
    constraint_tol: float = 1e-2,
    objective_tol: float = 1e-6,
    multiplier_init: float = 1.0,
    stall_window: int = 50,
) -> DualIterationResult:
    """Dual subgradient method for multiple constraints.

    Each iteration minimizes the Lagrangian at the current multipliers
    (closed form via :func:`lagrangian_minimizer` with sum_m lam_m Phi_m) and
    ascends lam on the constraint residuals,
    lam_m <- max(floor, lam_m + step * (tr{Phi_m B B^H} - P_m)),
    falling back to a diminishing step once the worst violation stalls.
    Exits when all constraints hold within ``constraint_tol`` (relative) and
    the objective is stable over five iterations.
    """
    lam = np.full(problem.num_constraints, float(multiplier_init))
    result = DualIterationResult(
        precoder=np.zeros((problem.channel.shape[1], problem.streams), dtype=complex),
        multipliers=lam,
        wsmse=float(np.sum(problem.weights)),
        usage=np.zeros(problem.num_constraints),
    )
    budgets = problem.budgets
    best_violation = np.inf
    stall = 0
    diminish_from = None
    for j in range(1, max_outer + 1):
        phi = sum(l * p for l, p in zip(lam, problem.constraints))
        precoder = lagrangian_minimizer(problem, phi)
        usage = constraint_usage_single(problem, precoder)
        wsmse = precoder_wsmse(problem, precoder)
        dual = wsmse + float(np.dot(lam, usage - budgets))
        violation = float(np.max((usage - budgets) / np.maximum(budgets, 1e-300)))
        result.residuals.append(usage - budgets)
        result.dual_values.append(dual)
        result.wsmse_trace.append(wsmse)
        result.precoder = precoder
        result.multipliers = lam.copy()
        result.wsmse = wsmse
        result.usage = usage
        result.iterations = j

        stable = (
            len(result.wsmse_trace) >= 6
            and max(
                abs(b - a) / max(1.0, abs(result.wsmse_trace[-1]))
                for a, b in zip(result.wsmse_trace[-6:], result.wsmse_trace[-5:])
            )
            <= objective_tol
        )
        if violation <= constraint_tol and stable:
            result.converged = True
            break

        residual = active_residual(usage, budgets, lam)
        if residual < best_violation - 1e-12:
            best_violation = residual
            stall = 0
        else:
            stall += 1
            if stall >= stall_window and diminish_from is None:
                diminish_from = j
        step_j = step if diminish_from is None else step / np.sqrt(1 + j - diminish_from)
        lam = np.maximum(LAMBDA_FLOOR, lam + step_j * (usage - budgets))
        if np.max(lam) > LAMBDA_CAP:
            raise NumericalFailureError(
                f"dual multipliers diverged (max {np.max(lam):.3e} after {j} iterations; "
                f"worst violation {violation:.3e})"
            )

    # Zero duality gap needs every constraint active with a meaningfully
    # positive multiplier; report whether the returned point satisfies that.
    rel_slack = np.abs(result.usage - budgets) / np.maximum(budgets, 1e-300)
    result.binding = bool(np.all(rel_slack <= constraint_tol) and np.all(result.multipliers > 10 * LAMBDA_FLOOR))
    return result


def kkt_residual(problem: SingleUserProblem, precoder: np.ndarray, multipliers) -> float:
    """Stationarity plus complementary-slackness residual at (B, lam):

    ||-R B E W E + (sum_m lam_m Phi_m) B||_F / max(1, ||B||_F)
      + sum_m |lam_m (P_m - tr{Phi_m B B^H})| / max(1, P_m)
    with E = (I + B^H R B)^{-1}.
    """
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != (problem.num_constraints,):
        raise ContractViolationError("one multiplier per constraint is required")
    r = problem.quadratic_form()
    g = precoder.conj().T @ r @ precoder
    e = np.linalg.inv(np.eye(problem.streams) + 0.5 * (g + g.conj().T))
    w = np.diag(problem.weights)
    grad = -r @ precoder @ e @ w @ e + sum(l * p for l, p in zip(lam, problem.constraints)) @ precoder
    stationarity = float(np.linalg.norm(grad)) / max(1.0, float(np.linalg.norm(precoder)))
    usage = constraint_usage_single(problem, precoder)
    slackness = float(
        np.sum(np.abs(lam * (problem.budgets - usage)) / np.maximum(1.0, problem.budgets))
    )
    return stationarity + slackness
