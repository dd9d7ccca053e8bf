"""Single-user weighted-MMSE precoder design under trace constraints, and
the priced step, dual loop and priced minimizer that every netmimo dual
method runs on.

Every closed-form step is :func:`priced_directions`: with the receive
factor C = H^H L^{-H} of Omega = L L^H (:func:`receive_factors`, so
R = H^H Omega^{-1} H = C C^H) and the transmit-side price F, take the top
eigendirections of the priced channel, F^{-1/2} C C^H F^{-1/2}, with their
gains, and waterfill the stream powers onto them.  With one constraint
F = Phi and the powers meet the budget.  With several,
:func:`solve_multi_constraint` prices them with multipliers lam: the
Lagrangian minimizer is the closed form with F = sum_m lam_m Phi_m at unit
water level, and lam ascends on the constraint residuals.  The usage
tr{Phi_m B B^H} is :func:`linalg.weight_usage` and F
:func:`linalg.priced_form`, the kernels that read the constraint format.

The step takes one path per price format.  A dense F, which every caller
forms positive definite, is solved with in the receive dimension m = m_r:
X = F^{-1} C by one LU solve and the m x m ``eigh`` of C^H X, whose
eigenpairs are the right singular pairs of F^{-1/2} C.  On the commonest
weights, one budget per antenna or per BS block, F comes as its diagonal,
whitened as a row scaling, so a pass factors nothing but one thin SVD.

Shared with ``algorithms``: ``dmmse`` and ``pwf`` run on the same step,
``dmmse`` through :func:`priced_minimizer` (the batched form of
:func:`lagrangian_minimizer`), and :func:`dual_loop` is the pricing/polish
loop of ``dmmse``, ``emmseia``, ``pwf`` and :func:`solve_multi_constraint`,
each with its own pass, exit test and multiplier rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, NumericalFailureError, SingularMatrixError
from .linalg import (LinAlgError, adjoint, cholesky, diagonal_whiteners, disjoint_diagonals, hermitian_part,
                     hermitian_top_eigs_batch, indefinite_members, inv, priced_form, priced_weights, require_hermitian,
                     solve, svd, waterfill_budget, weight_usage)

# Bounds of the power-price multipliers of every dual loop in netmimo.
LAMBDA_FLOOR = 1e-9
LAMBDA_CAP = 1e12
# Gains below GAIN_RTOL * max(1, gain_max) carry no usable signal; their
# streams keep zero precoder columns so d is preserved.
GAIN_RTOL = 1e-12
# Most fixed-multiplier polish runs of a dual loop; each run that drifts off
# the budgets re-enters pricing.
MAX_POLISH_ROUNDS = 5
# Pricing passes without a new best active residual after which a
# multiplier rule's step starts to diminish (the additive rule's window).
STALL_WINDOW = 50
# solve_multi_constraint's step, pass cap, tolerances and initial multipliers.
MULTI_STEP = 0.1
MULTI_MAX_OUTER = 2000
MULTI_CONSTRAINT_TOL = 1e-2
MULTI_OBJECTIVE_TOL = 1e-6
MULTI_LAMBDA_INIT = 1.0


@dataclass(frozen=True)
class SingleUserProblem:
    """One transmitter/receiver pair with M trace constraints.

    channel    -- H, (m_r, m_t)
    noise_cov  -- Omega, (m_r, m_r) Hermitian PD (noise plus fixed interference);
                  its symmetrized copy is stored
    constraints-- (M, m_t, m_t) PSD weights Phi_m (a sequence of the M
                  matrices is stacked); their sum must be PD
    budgets    -- (M,) positive
    weights    -- per-stream non-negative MSE weights, length d
    streams    -- d
    """

    channel: np.ndarray
    noise_cov: np.ndarray
    constraints: np.ndarray
    budgets: np.ndarray
    weights: np.ndarray
    streams: int

    def __post_init__(self):
        object.__setattr__(self, "channel", np.asarray(self.channel, dtype=complex))
        object.__setattr__(self, "budgets", np.asarray(self.budgets, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        mr, mt = self.channel.shape
        if not np.all(np.isfinite(self.channel)):
            raise ContractViolationError("channel entries must be finite")
        if np.shape(self.noise_cov) != (mr, mr):
            raise ContractViolationError("noise covariance must match the receive dimension")
        object.__setattr__(self, "noise_cov", require_hermitian(self.noise_cov))
        if indefinite_members(self.noise_cov[None]):
            raise ContractViolationError("noise covariance must be positive definite")
        if len(self.constraints) != self.budgets.size or not self.budgets.size:
            raise ContractViolationError("one budget per constraint matrix is required")
        if any(np.shape(phi) != (mt, mt) for phi in self.constraints):
            raise ContractViolationError("constraint weights must be square with the transmit dimension")
        object.__setattr__(self, "constraints", np.asarray(self.constraints, dtype=complex))
        if not np.all(self.budgets > 0):
            raise ContractViolationError("constraint budgets must be positive")
        if indefinite_members(np.add.reduce(self.constraints, keepdims=True)):
            raise ContractViolationError("summed constraint weights must be positive definite")
        if self.weights.shape != (self.streams,):
            raise ContractViolationError("one weight per stream is required")
        if np.any(self.weights < 0):
            raise ContractViolationError("stream weights must be non-negative")
        if not 1 <= self.streams <= min(mr, mt):
            raise ContractViolationError("streams must lie in [1, min(m_r, m_t)]")

    @property
    def num_constraints(self) -> int:
        return int(self.budgets.size)

    @cached_property
    def constraint_supports(self):
        """(M, m_t) diagonals of the constraint weights when all are real
        diagonals with disjoint supports (one budget per antenna or per
        antenna block), else None (:func:`disjoint_diagonals`); found on
        first use, so building a problem does not pay for it."""
        return disjoint_diagonals(self.constraints)

    def quadratic_form(self) -> np.ndarray:
        """R = H^H Omega^{-1} H."""
        return hermitian_part(self.channel.conj().T @ solve(self.noise_cov, self.channel))

    def quadratic_factor(self) -> np.ndarray:
        """C = H^H L^{-H}, (m_t, m_r), so that R = C C^H (:func:`receive_factors`)."""
        return receive_factors(self.noise_cov[None], self.channel.conj().T[None])[0]


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
    stop: str = ""  # DualRun.stop


def budget_residuals(excess, budgets, lam) -> tuple:
    """(:func:`max_violation`, dual residual over active coordinates:
    violated, or with a meaningfully positive multiplier) from lists of the
    excesses usage_m - P_m, the budgets and lam, in numpy's IEEE operations
    on floats.  A NaN makes the violation NaN, so no exit test passes."""
    rel = [e / p for e, p in zip(excess, budgets)]
    return _max(rel), _max([abs(r) for r, e, m in zip(rel, excess, lam) if m > 10 * LAMBDA_FLOOR or e > 0], 0.0)


def _max(values, top: float = -np.inf) -> float:
    """max(top, *values) of floats as numpy takes it: NaN if any is NaN."""
    for v in values:
        top = v if v > top or v != v else top
    return top


def max_violation(usage: np.ndarray, budgets: np.ndarray) -> float:
    """Largest relative budget excess max_m (usage_m - P_m) / P_m."""
    return float(((usage - budgets) / budgets).max())


def objective_stable(trace, tol: float, window: int = 5) -> bool:
    """Every per-pass objective change over the last ``window`` passes is
    within ``tol`` relative."""
    if len(trace) < window + 1:
        return False
    ref = max(1.0, abs(trace[-1]))
    tail = trace[-window - 1:]
    return all(abs(b - a) <= tol * ref for a, b in zip(tail, tail[1:]))


def receive_factors(omegas, channels_h) -> np.ndarray:
    """C_k = H_k^H L_k^{-H} for an exactly Hermitian (K, m_r, m_r) stack
    Omega_k = L_k L_k^H and the (K, n, m_r) adjoint channels H_k^H, so that
    C_k C_k^H = H_k^H Omega_k^{-1} H_k.  Every caller's Omega_k is PD (at
    least I, or validated), so no certificate is taken; a factorization that
    fails anyway (non-finite input) raises :class:`NumericalFailureError`."""
    try:
        low = cholesky(omegas)
        # a non-finite entry in the lower triangle of Omega_k, all that is
        # read, leaves a non-finite diagonal in L_k
        finite = np.isfinite(np.diagonal(low, axis1=-2, axis2=-1)).all()
    except LinAlgError:
        finite = False
    if not finite:
        raise NumericalFailureError("interference-plus-noise covariance has no Cholesky factor")
    return channels_h @ adjoint(inv(low))


def priced_directions(f, c, d: int) -> tuple:
    """(T, D, g): the closed-form step on pricing matrices F_k and (K, n, m)
    receive factors ``c``, with g_k the top-``d`` gains, descending, so that
    B_k = T_k (D_k diag(sqrt p_k)) spends the powers p_k (:func:`_unwhiten`).
    One path per price format:

    * an exactly Hermitian, positive definite (K, n, n) stack ``f``: the
      step runs in the receive dimension.  X_k = F_k^{-1} C_k by one
      batched LU solve, V_k and g_k the top-``d`` eigenpairs of the m x m
      Hermitian C_k^H X_k, and D_k = X_k V_k diag(g_k^{-1/2}) (a column of
      gain <= 0 is left unscaled), which is the whitened step F_k^{-1/2} U_k
      in exact arithmetic, U_k the top left singular vectors of
      F_k^{-1/2} C_k; T is None.  F_k is not factored and nothing is
      SVD-decomposed.  LU with partial pivoting is backward stable on a PD
      F_k, so no certificate is taken; gains that are not finite (a NaN in
      either input) raise :class:`NumericalFailureError`.
    * the (K, n) diagonals of real diagonal F_k (:func:`diagonal_whiteners`):
      T the (K, n) row scalings f_k^{-1/2}, D the top-``d`` left singular
      vectors of T_k C_k and g their squared singular values.
    """
    if f.ndim == 2:
        t = diagonal_whiteners(f)
        try:
            left, sing, _ = svd(t[..., None] * c)
        except LinAlgError as exc:
            raise NumericalFailureError("SVD of the whitened channel factors did not converge") from exc
        return t, left[..., :d], sing[:, :d] ** 2
    x = solve(f, c)
    gains, basis = hermitian_top_eigs_batch(hermitian_part(adjoint(c) @ x), d)
    if not np.isfinite(gains).all():
        raise NumericalFailureError("priced channel gains are not finite")
    return None, (x @ basis) / np.sqrt(np.where(gains > 0.0, gains, 1.0))[:, None, :], gains


def _unwhiten(t, x) -> np.ndarray:
    """T_k X_k for the row scalings T of :func:`priced_directions` (X itself
    where T is None)."""
    return x if t is None else t[..., None] * x


def stream_order(weights):
    """The ``order`` of (K, d) stream weights in :func:`priced_minimizer`:
    None if no row increases, else the stable descending argsort."""
    return None if (weights[:, :-1] >= weights[:, 1:]).all() else np.argsort(-weights, axis=-1, kind="stable")


def usable_gains(gains):
    """Mask of the (..., d) descending ``gains`` that carry usable signal:
    those above GAIN_RTOL * max(1, largest gain)."""
    return gains > GAIN_RTOL * np.maximum(1.0, gains[..., :1])


def priced_minimizer(f, c, weights, order, values: bool = False):
    """Minimizers B_k of tr{W_k (I + B^H R_k B)^{-1}} + tr{F_k B B^H} for
    pricing matrices F_k, (K, n, m) factors ``c`` of the quadratic forms,
    R_k = C_k C_k^H, and (K, d) stream ``weights`` (d <= min(n, m)) ranked
    by ``order``, as the (K, n, d) stack: B_k = T_k (D_k diag(sqrt p)) on
    :func:`priced_directions` (``f`` in either format there) with the
    unit-level waterfill p_i = [sqrt(w_i / g_i) - 1/g_i]^+ on the gains
    :func:`usable_gains`.  With ``values`` the (K,) objective values
    tr{W_k (I + B_k^H R_k B_k)^{-1}} = sum_i w_i / (1 + p_i g_i) come
    along, as ``(columns, values)``: B_k^H R_k B_k = diag(p_i g_i).  Once
    per pass; ``order`` (:func:`stream_order`) the caller finds once per
    weight set.  The largest weight rides the strongest direction
    (rearrangement: the active-stream cost sums sqrt(w_i / g_i))."""
    t, basis, gains = priced_directions(f, c, weights.shape[-1])
    paired_w = weights if order is None else np.take_along_axis(weights, order, -1)
    active = usable_gains(gains)
    if active.all():  # the masked waterfill below, without its masks
        powers = np.maximum(np.sqrt(paired_w / gains) - 1.0 / gains, 0.0)
    else:
        g = np.where(active, gains, 1.0)  # waterfill_eval at mu = 1 on the active gains
        powers = np.where(active, np.maximum(np.sqrt(paired_w / g) - 1.0 / g, 0.0), 0.0)
    columns = _unwhiten(t, basis * np.sqrt(powers)[:, None, :])
    if order is not None:
        columns = np.take_along_axis(columns, np.argsort(order, axis=-1)[:, None, :], -1)
    return (columns, np.add.reduce(paired_w / (1.0 + powers * gains), axis=-1)) if values else columns


def additive_rule(step: float):
    """The subgradient multiplier rule lam <- max(floor, lam + t (usage - P))
    with t = ``step``, or step / sqrt(1 + n) n passes after the stall clock
    ran out."""

    def update(lam, usage, budgets, excess, since):
        t = step if since is None else step / np.sqrt(1 + since)
        return np.maximum(LAMBDA_FLOOR, lam + t * excess)

    return update


@dataclass
class DualRun:
    """Where a :func:`dual_loop` stopped; ``stop``: the bound that ended it,
    "exit_test" (the last pricing phase met its exit test, and the polish
    after it stayed within the budgets), "pass_cap" (``max_outer``) or
    "polish_rounds" (``MAX_POLISH_ROUNDS``)."""

    lam: np.ndarray
    usage: np.ndarray
    trace: list
    iterations: int
    polish_start: int | None
    stop: str


def dual_loop(run_pass, usage_of, exit_test, lam, budgets, max_outer: int, *, rule=None,
              stall_window: int = STALL_WINDOW, polish=None, max_inner: int = 0,
              polish_unconverged: bool = False, constraint_tol: float = 0.0) -> DualRun:
    """The pricing/polish loop of every dual method.

    A pricing pass ``run_pass(lam)`` returns the objective value;
    ``usage_of()`` gives the usage after it.  Unless ``exit_test(trace,
    *budget_residuals(excess, ...))`` holds, ``rule(lam, usage, budgets,
    excess, since)`` steps lam (``rule=None``: fixed); ``since`` is None
    until ``stall_window`` passes in a row bring no new best active
    residual, then the passes since.  ``max_outer`` pricing passes serve
    all rounds.  Then ``polish()`` (pricing that ran out of passes only
    with ``polish_unconverged``) returns a pass ``step(lam) -> (value,
    done)``, run at most ``max_inner`` times; a polish run ending more than
    ``constraint_tol`` over a budget re-enters pricing, for at most
    ``MAX_POLISH_ROUNDS`` rounds.  Per pass the loop forms the excess
    usage - budgets once, for the residuals, the step and the cap check."""
    trace: list = []  # one value per pass, so its length counts the passes
    polish_start = None
    best_residual, stall, diminish_from = np.inf, 0, None
    usage = None
    pricing_budget, settled = max_outer, True  # settled: the last polish run ended within the budgets
    budget_list, lam_list = budgets.tolist(), lam.tolist()
    for _ in range(MAX_POLISH_ROUNDS):
        exited = False
        while pricing_budget > 0:
            pricing_budget -= 1
            trace.append(run_pass(lam))
            usage = usage_of()
            excess = usage - budgets
            violation, residual = budget_residuals(excess.tolist(), budget_list, lam_list)
            if exit_test(trace, violation, residual):
                exited = True
                break
            if rule is None:
                continue
            if residual < best_residual - 1e-12:
                best_residual, stall = residual, 0
            else:
                stall += 1
                if stall >= stall_window and diminish_from is None:
                    diminish_from = len(trace)
            lam = rule(lam, usage, budgets, excess, None if diminish_from is None else len(trace) - diminish_from)
            lam_list = lam.tolist()
            top = _max(lam_list)
            if top > LAMBDA_CAP:
                raise NumericalFailureError(
                    f"power-price multipliers diverged (max {top:.3e} after {len(trace)} "
                    f"passes, violation {violation:.3e})"
                )
        if polish is None or not (exited or polish_unconverged):
            break
        polish_start = len(trace)
        step = polish()
        for _ in range(max_inner):
            value, done = step(lam)
            trace.append(value)
            if done:
                break
        usage = usage_of()
        settled = max_violation(usage, budgets) <= constraint_tol
        if settled or pricing_budget <= 0:
            break
    stop = "exit_test" if exited and settled else "pass_cap" if pricing_budget <= 0 else "polish_rounds"
    return DualRun(lam, usage, trace, len(trace), polish_start, stop)


def solve_single_constraint(problem: SingleUserProblem) -> SingleUserSolution:
    """Globally optimal precoder under a single trace constraint.

    B = T D diag(sqrt p) on :func:`priced_directions` with F = Phi (the
    :func:`linalg.priced_form` at lam = [1]; Phi is PD, as the summed
    weights are validated PD), gains g_1 >= ... >= g_d, and p waterfilled
    so that tr{Phi B B^H} = sum_i p_i equals the budget.  A zero channel
    yields B = 0 with objective sum_i w_i.
    """
    if problem.num_constraints != 1:
        raise ContractViolationError("solve_single_constraint requires exactly one constraint")
    budget = float(problem.budgets[0])
    f = priced_form(problem.constraints, problem.constraint_supports, np.ones(1))
    t, basis, gains = priced_directions(f[None], problem.quadratic_factor()[None], problem.streams)
    gains = gains[0]
    # largest weight rides the strongest direction
    order = np.argsort(-problem.weights, kind="stable")
    paired_w = problem.weights[order]         # descending, aligned with gains
    active = usable_gains(gains)
    ranked_powers = np.zeros_like(gains)
    level = float("inf")
    if np.any(active):
        alloc = waterfill_budget(paired_w[active], gains[active], budget)
        ranked_powers[active] = alloc.levels
        level = alloc.multiplier
    back = np.argsort(order)  # ranked -> stream order
    precoder = _unwhiten(t, basis * np.sqrt(np.maximum(ranked_powers, 0.0)))[0][:, back]
    stream_gains, stream_powers = gains[back], ranked_powers[back]
    wsmse = float(np.sum(problem.weights / (1.0 + stream_powers * stream_gains)))
    return SingleUserSolution(precoder=precoder, wsmse=wsmse, gains=stream_gains,
                              powers=stream_powers, water_level=level)


def lagrangian_minimizer(problem: SingleUserProblem, phi_agg: np.ndarray) -> np.ndarray:
    """Minimizer of the power-priced objective
    tr{W (I + B^H R B)^{-1}} + tr{phi_agg B B^H}: :func:`priced_minimizer`
    for the one user with F = ``phi_agg``, which must be Hermitian and
    positive definite (:func:`linalg.indefinite_members`; else
    :class:`SingularMatrixError`)."""
    f, weights = require_hermitian(phi_agg)[None], problem.weights[None]
    if indefinite_members(f):
        raise SingularMatrixError("aggregate price must be positive definite")
    return priced_minimizer(f, problem.quadratic_factor()[None], weights, stream_order(weights))[0]


def precoder_wsmse(problem: SingleUserProblem, precoder: np.ndarray) -> float:
    """tr{W (I + B^H R B)^{-1}}: the objective with the MMSE receiver substituted."""
    g = hermitian_part(precoder.conj().T @ problem.quadratic_form() @ precoder)
    return float(np.trace(np.diag(problem.weights) @ inv(np.eye(problem.streams) + g)).real)


def solve_multi_constraint(problem: SingleUserProblem) -> DualIterationResult:
    """Dual subgradient method for multiple constraints, on :func:`dual_loop`.

    Each pass minimizes the Lagrangian at the current multipliers
    (:func:`priced_minimizer` with F = sum_m lam_m Phi_m, which also gives
    the pass's weighted MSE sum_i w_i / (1 + p_i g_i)) and the
    :func:`additive_rule` ascends lam on the constraint residuals,
    lam_m <- max(floor, lam_m + step * (tr{Phi_m B B^H} - P_m)),
    diminishing the step once the active residual stalls for
    ``STALL_WINDOW`` passes.  F is :func:`linalg.priced_form` (the
    multipliers stay at least ``LAMBDA_FLOOR``, so a dense F is PD).
    Exits when all constraints hold within ``MULTI_CONSTRAINT_TOL``
    (relative) and the objective is stable over five passes.
    """
    budgets, phis, supports = problem.budgets, problem.constraints, problem.constraint_supports
    c, weights = problem.quadratic_factor()[None], problem.weights[None]
    order = stream_order(weights)
    result = DualIterationResult(
        precoder=np.zeros((problem.channel.shape[1], problem.streams), dtype=complex),
        multipliers=np.full(problem.num_constraints, MULTI_LAMBDA_INIT),
        wsmse=float(np.sum(problem.weights)),
        usage=np.zeros(problem.num_constraints),
    )

    def run_pass(lam):
        f = priced_form(phis, supports, lam)
        precoders, values = priced_minimizer(f[None], c, weights, order, values=True)
        precoder, wsmse = precoders[0], float(values[0])
        usage = weight_usage(phis, supports, precoder)
        excess = usage - budgets
        result.residuals.append(excess)
        result.dual_values.append(wsmse + float(np.dot(lam, excess)))
        # the rule binds a new lam, so lam needs no copy
        result.precoder, result.multipliers, result.wsmse, result.usage = precoder, lam, wsmse, usage
        return wsmse

    def exit_test(trace, violation, residual):
        return violation <= MULTI_CONSTRAINT_TOL \
            and objective_stable(trace, MULTI_OBJECTIVE_TOL)

    run = dual_loop(run_pass, lambda: result.usage, exit_test, result.multipliers, budgets, MULTI_MAX_OUTER,
                    rule=additive_rule(MULTI_STEP))
    result.wsmse_trace, result.iterations, result.stop = run.trace, run.iterations, run.stop
    result.converged = run.stop == "exit_test"

    # Zero duality gap needs every constraint active with a meaningfully
    # positive multiplier; report whether the returned point satisfies that.
    rel_slack = np.abs(result.usage - budgets) / budgets
    result.binding = bool(np.all(rel_slack <= MULTI_CONSTRAINT_TOL)
                          and np.all(result.multipliers > 10 * LAMBDA_FLOOR))
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
    e = inv(np.eye(problem.streams) + 0.5 * (g + g.conj().T))
    w = np.diag(problem.weights)
    grad = -r @ precoder @ e @ w @ e + priced_weights(problem.constraints, problem.constraint_supports, lam) @ precoder
    stationarity = float(np.linalg.norm(grad)) / max(1.0, float(np.linalg.norm(precoder)))
    usage = weight_usage(problem.constraints, problem.constraint_supports, precoder)
    slackness = float(
        np.sum(np.abs(lam * (problem.budgets - usage)) / np.maximum(1.0, problem.budgets))
    )
    return stationarity + slackness
