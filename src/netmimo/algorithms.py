"""Iterative multiuser beamformer designs for the constrained interference channel.

Four families are implemented:

``dmmse``
    Per-user eigenbasis precoders that diagonalize every user's error
    covariance: each precoder whitens the interference-pricing matrix
    F_k = Upsilon_k + sum_m lam_m Phi_{k,m}, keeps the leading
    eigendirections of the whitened direct-channel quadratic form, and
    waterfills at unit level; multipliers ascend on the power residuals.
``emmseia``
    Joint linear-system precoder update from fixed MMSE equalizers,
    B_k = (sum_l H_{l,k}^H A_l W_l A_l^H H_{l,k} + sum_m mu_m Phi_{k,m})^{-1}
    H_{k,k}^H A_k W_k, with the multipliers searched each round until the
    complementary-slackness conditions hold.
``pwf``
    Transmit-covariance fixed point coupling the forward network with its
    reversed-link counterpart through pre/post-whitened channels; a single
    water level is bisected against the multiplier-weighted power budget and
    the multipliers update multiplicatively.  Sum-rate objective only.
``min_leakage``
    Alternating smallest-eigenvector updates of orthonormal transmit factors
    and receive filters minimizing the total interference power leaked into
    the intended receive subspaces, with the per-BS budget split equally
    over served streams.

The ``dmmse``/``emmseia`` solvers run either on a fixed weighted-MSE
objective or inside the rate-maximizing reweighting loop
(:func:`srm_outer_loop`, weights refreshed to E_k^{-1} each round).  After
the multiplier loop meets the feasibility tolerance, the multipliers are
frozen and the inner alternation is iterated to its fixed point, so the
returned ``dmmse``/``pwf`` solutions satisfy their structural identities
(diagonal error covariances, self-consistent covariance equations) to tight
tolerance.  All solvers are deterministic given problem, config and seed.

The ``dmmse``, ``emmseia`` and ``pwf`` loops run batched over users on the
zero-padded :attr:`InterferenceProblem.arrays`, whatever the users' serving
sets and stream counts.  Padding adds nothing on the real coordinates: the
matrices that are inverted over the transmit space (``dmmse``'s pricing
matrix F_k, ``pwf``'s reversed-link covariance, ``emmseia``'s linear system)
get 1 on their padded diagonal, padded streams get zero weight in ``dmmse``
and no power in ``pwf``, and each user's block is cut out only where a result
leaves the solver (:class:`BeamformerSolution`, :class:`DualNetworkState`,
and the error-covariance diagonality test).  ``min_leakage`` works on the
physical per-BS form.

Every sum-rate (``srm``) solution, from ``dmmse``/``emmseia`` in the
reweighting loop and from ``pwf``, meets each budget by construction: when
the last iterate is over a budget by more than ``constraint_tol`` (possible
only on an unconverged stop), it is scaled back with :func:`fit_to_budgets`,
the equalizers are recomputed from the scaled precoders, ``converged`` stays
False, and the diagnostics keep the miss as ``unscaled_max_violation``.
The fixed-weight ``wsmmse`` path returns its last iterate unscaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, NumericalFailureError, SingularMatrixError
from .linalg import adjoint, hermitian_part, hermitian_top_eigs_batch, psd_inv_sqrt, psd_inv_sqrt_batch
from .model import (
    BeamformerSolution,
    InterferenceProblem,
    PartialCooperationSystem,
    build_interference_problem,
    constraint_usage,
    cut_padding,
    interference_covariances,
    mmse_equalizers,
    mse_matrices_mmse,
    pad_stack,
    set_padded_diagonal,
    srm_weight_update,
    sum_over_sources,
    sum_rate,
    wsmse_objective,
)
from .single_user import LAMBDA_CAP, LAMBDA_FLOOR, active_residual

ALGORITHMS = ("dmmse", "emmseia", "pwf", "min_leakage")
OBJECTIVES = ("wsmmse", "srm")

# Most fixed-multiplier polish runs a dmmse or pwf solve makes; each run
# that drifts off the budgets re-enters pricing.
MAX_POLISH_ROUNDS = 5
# Relative off-diagonal mass below which an error covariance counts as diagonal.
OFFDIAG_TOL = 1e-8
# Complementary slackness target: |mu_m (P_m - usage_m)| <= SLACKNESS_TOL * P_m.
SLACKNESS_TOL = 1e-3
# Fixed-point tolerance (max relative covariance change) of the pwf polish.
PWF_POLISH_TOL = 1e-9


@dataclass(frozen=True)
class AlgorithmConfig:
    """Solver options shared by all algorithm families.

    ``initialization`` is "scaled_identity" (first d_k identity columns,
    scaled to spend a 0.9/K budget fraction per user) or
    "random_orthonormal" (seeded by ``init_seed``).

    ``max_outer`` caps the pricing passes of a solve (multiplier updates
    interleaved with the alternation), summed over all its rounds;
    ``dmmse`` and ``pwf`` then run up to ``MAX_POLISH_ROUNDS``
    fixed-multiplier polish runs of at most ``max_inner`` passes each.  So
    the ``iterations`` a solve returns obey
    iterations <= max_outer + MAX_POLISH_ROUNDS * max_inner
    (``emmseia``: iterations <= max_outer; ``min_leakage`` counts rounds,
    at most ``max_outer``).
    """

    algorithm: str = "dmmse"
    objective: str = "wsmmse"
    max_inner: int = 500
    max_outer: int = 2000
    inner_tol: float = 1e-6
    constraint_tol: float = 1e-2
    subgradient_step: float = 0.1
    lambda_init: float = 1.0
    initialization: str = "scaled_identity"
    init_seed: int = 0

    def validate(self) -> "AlgorithmConfig":
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(f"algorithm must be one of {ALGORITHMS}")
        if self.objective not in OBJECTIVES:
            raise ConfigurationError(f"objective must be one of {OBJECTIVES}")
        if self.algorithm == "min_leakage" and self.objective == "srm":
            raise ConfigurationError(
                "min_leakage optimizes interference leakage directly; objective 'srm' is not supported"
            )
        if self.algorithm == "pwf" and self.objective != "srm":
            raise ConfigurationError("pwf optimizes the sum-rate objective; set objective='srm'")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ConfigurationError("iteration limits must be positive")
        if self.inner_tol <= 0 or self.constraint_tol <= 0:
            raise ConfigurationError("tolerances must be positive")
        if self.subgradient_step < 0:
            raise ConfigurationError("subgradient_step must be non-negative")
        if self.lambda_init <= 0:
            raise ConfigurationError("lambda_init must be positive")
        if self.initialization not in ("scaled_identity", "random_orthonormal"):
            raise ConfigurationError("initialization must be scaled_identity or random_orthonormal")
        return self


@dataclass(frozen=True)
class DualNetworkState:
    """Last pwf iterate: forward transmit covariances, reversed-link
    covariances, multipliers, and the shared water level.

    When the solve ends over a budget, the returned precoders are scaled
    into the budgets but this state still describes the unscaled last
    iterate; :func:`pwf_fixed_point_residual` is meaningful only on
    converged solves."""

    covariances: tuple
    dual_covariances: tuple
    multipliers: np.ndarray
    water_level: float


@dataclass(frozen=True)
class LeakageState:
    """Converged min-leakage state: per-(user, BS) orthonormal transmit
    factors, orthonormal receive filters, and the final leakage value."""

    factors: tuple
    equalizers: tuple
    leakage: float


def offdiag_mass(mat: np.ndarray) -> float:
    """Relative Frobenius mass of the off-diagonal part of ``mat``."""
    mat = np.asarray(mat)
    off = mat - np.diag(np.diag(mat))
    return float(np.linalg.norm(off)) / max(float(np.linalg.norm(mat)), 1e-300)


def _norms(mats) -> np.ndarray:
    """np.linalg.norm of each matrix in a (K, ., .) stack; the batched dot
    products are the ones np.linalg.norm takes."""
    flat = np.asarray(mats).reshape(len(mats), 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0])


def _max_offdiag_mass(mats) -> float:
    """The largest :func:`offdiag_mass` over a (K, n, n) stack."""
    off = np.array(mats)
    idx = np.arange(off.shape[-1])
    off[:, idx, idx] = 0.0
    return float(np.max(_norms(off) / np.maximum(_norms(mats), 1e-300)))


def _mse_offdiag(problem: InterferenceProblem, precoders, omegas) -> float:
    """The largest :func:`offdiag_mass` of the users' MMSE error covariances
    E_k, each over its own d_k x d_k block: the padded diagonal (identity in
    :func:`mse_matrices_mmse`) is cleared, which leaves exactly the block's
    entries nonzero."""
    mses = mse_matrices_mmse(problem, precoders, omegas)
    return _max_offdiag_mass(set_padded_diagonal(mses, problem.arrays.stream_pad, 0.0))


def initialize_precoders(problem: InterferenceProblem, config: AlgorithmConfig) -> list:
    """Feasible starting precoders spending a 0.9/K fraction of the smallest
    budget per user (usage_m <= 0.9 min(P) under unit-partition constraints)."""
    k_users = problem.num_users
    min_budget = float(np.min(problem.budgets))
    rng = np.random.default_rng(config.init_seed)
    precoders = []
    for k in range(k_users):
        mt, d = problem.tx_dims[k], problem.streams[k]
        scale = np.sqrt(0.9 * min_budget / (k_users * d))
        if config.initialization == "scaled_identity":
            b = np.zeros((mt, d), dtype=complex)
            b[:d, :d] = np.eye(d)
        else:
            z = rng.standard_normal((mt, d)) + 1j * rng.standard_normal((mt, d))
            b, _ = np.linalg.qr(z)
        precoders.append(scale * b)
    return precoders


def _objective_stable(trace, tol: float, window: int = 5) -> bool:
    """Every per-round objective change over the last ``window`` rounds is
    within ``tol`` relative."""
    if len(trace) < window + 1:
        return False
    ref = max(1.0, abs(trace[-1]))
    tail = trace[-window - 1:]
    return all(abs(b - a) <= tol * ref for a, b in zip(tail, tail[1:]))


def _max_violation(usage: np.ndarray, budgets: np.ndarray) -> float:
    return float(np.max((usage - budgets) / np.maximum(budgets, 1e-300)))


def _constraint_row_supports(problem: InterferenceProblem):
    """The (K, M, m_t) 0/1 array whose [k, m] row marks the precoder rows
    that constraint m weighs on user k, or None unless every constraint
    weight is diagonal and no precoder row is weighed by two constraints."""
    constraints = problem.arrays.constraints
    diags = np.diagonal(constraints, axis1=-2, axis2=-1)
    if np.count_nonzero(constraints - diags[..., None] * np.eye(constraints.shape[-1])):
        return None
    support = diags != 0
    if np.any(support.sum(axis=1) > 1):
        return None
    return support.astype(float)


def fit_to_budgets(problem: InterferenceProblem, precoders) -> tuple:
    """Scale ``precoders`` so that every constraint meets its budget; returns
    (scaled precoders as the padded stack, their usage).

    When the constraint weights are diagonal with disjoint supports (the
    block masks of :func:`build_interference_problem`), the rows weighed by
    each over-budget constraint m are scaled by sqrt(P_m / usage_m) in every
    precoder, which sets usage_m to P_m and leaves every other constraint
    and every other row unchanged.  For any other constraint weights all
    precoders share the one factor sqrt(min_m P_m / usage_m) over the
    over-budget m; usage is quadratic in the precoders, so every constraint
    then meets its budget.
    """
    budgets = problem.budgets
    precoders = problem.arrays.precoders(precoders)
    usage = constraint_usage(problem, precoders)
    over = usage > budgets
    if not np.any(over):
        return precoders, usage
    factors = np.ones(problem.num_constraints)
    factors[over] = np.sqrt(budgets[over] / usage[over])
    supports = _constraint_row_supports(problem)
    if supports is None:
        scaled = float(np.min(factors)) * precoders
    else:
        scaled = (factors @ supports)[..., None] * precoders
    return scaled, constraint_usage(problem, scaled)


def _stream_weights(problem: InterferenceProblem, mats) -> np.ndarray:
    """The diagonals of a padded (K, d, d) weight stack as the per-stream
    weights of the diagonalizing solver, (K, d), zero on padded streams."""
    weights = np.maximum(np.diagonal(mats, axis1=-2, axis2=-1).real, 0.0)
    weights[problem.arrays.stream_pad] = 0.0
    return weights


def _diagonal_weights(problem: InterferenceProblem) -> np.ndarray:
    """:func:`_stream_weights` of the problem's MSE weights, which the
    diagonalizing solver requires to be diagonal."""
    for k, w in enumerate(problem.mse_weights):
        if offdiag_mass(w) > 1e-10:
            raise ContractViolationError(
                f"user {k}: the diagonalizing solver requires diagonal MSE weights"
            )
    return _stream_weights(problem, problem.arrays.mse_weights)


# ---------------------------------------------------------------------------
# dmmse
# ---------------------------------------------------------------------------

def _priced_weights(problem, lam):
    """(K, m_t, m_t) stack of sum_m lam_m Phi_{k,m}."""
    constraints = problem.arrays.constraints
    priced = 0
    for m in range(problem.num_constraints):
        priced = priced + lam[m] * constraints[:, m]
    return priced


def _pricing_matrices(problem, ups, lam):
    """Interference-pricing matrices F_k = ups_k + sum_m lam_m Phi_{k,m},
    with 1 on the padded diagonal."""
    f = hermitian_part(ups + _priced_weights(problem, lam))
    return set_padded_diagonal(f, problem.arrays.tx_pad, 1.0)


def _pricing_inv_sqrt(problem, ups, lam):
    """Inverse square roots of the interference-pricing matrices."""
    f = _pricing_matrices(problem, ups, lam)
    s, ok = psd_inv_sqrt_batch(f)
    for k in np.flatnonzero(~ok):
        try:
            s[k] = psd_inv_sqrt(f[k])
        except SingularMatrixError:
            # one retry with the price floor lifted to the interference scale
            guard = max(LAMBDA_FLOOR, 1e-9 * max(1.0, float(np.linalg.norm(ups[k]))))
            lifted = _pricing_matrices(problem, ups, np.maximum(lam, guard))[k]
            try:
                s[k] = psd_inv_sqrt(lifted)
            except SingularMatrixError as exc:
                raise NumericalFailureError(
                    f"user {k}: interference-pricing matrix stayed singular after the floor retry"
                ) from exc
    return s


def _dmmse_precoder_step(problem, precoders, equalizers, weight_diags, lam, omegas=None):
    """Simultaneous per-user precoder update at multipliers ``lam``, as the
    padded (K, m_t, d) stack; padded streams carry zero weight and so get
    zero columns."""
    cross, direct = problem.arrays.cross, problem.arrays.direct
    if omegas is None:
        omegas = interference_covariances(problem, precoders)
    a = np.asarray(equalizers)
    w = np.asarray(weight_diags)
    awa = (a * w[:, None, :]) @ adjoint(a)
    # ups[k] = sum_{l != k} H_{l,k}^H A_l W_l A_l^H H_{l,k}, accumulated in ascending l
    ups = np.zeros(cross.shape[:1] + cross.shape[-1:] * 2, dtype=complex)
    for l in range(problem.num_users):
        ups += adjoint(cross[l]) @ awa[l] @ cross[l]
    s = _pricing_inv_sqrt(problem, ups, lam)
    r = adjoint(direct) @ np.linalg.solve(np.asarray(omegas), direct)
    m_w = s @ hermitian_part(r) @ s
    gains, basis = hermitian_top_eigs_batch(hermitian_part(m_w), w.shape[-1])
    # largest weight rides the strongest whitened direction
    order = np.argsort(-w, axis=-1, kind="stable")
    paired_w = np.take_along_axis(w, order, -1)
    active = gains > 1e-12 * np.maximum(1.0, np.max(gains, axis=-1, initial=0.0))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # waterfill_eval at mu = 1
        levels = np.maximum(np.sqrt(paired_w / gains) - 1.0 / gains, 0.0)
    powers = np.where(active, levels, 0.0)
    columns = s @ (basis * np.sqrt(powers)[:, None, :])
    return np.take_along_axis(columns, np.argsort(order, axis=-1)[:, None, :], -1)


# ---------------------------------------------------------------------------
# emmseia
# ---------------------------------------------------------------------------

def _emmseia_factors(problem, equalizers, weights):
    """Multiplier-independent parts of the precoder linear systems: the
    received-weight grams sum_l H_{l,k}^H A_l W_l A_l^H H_{l,k}, with 1 on
    the padded diagonal, and the right-hand sides H_{k,k}^H A_k W_k."""
    arrays = problem.arrays
    channels = arrays.channels
    a = arrays.equalizers(equalizers)
    w = np.asarray(weights)
    awa = a @ w @ adjoint(a)
    # gram[k] = sum_l H_{l,k}^H A_l W_l A_l^H H_{l,k}, accumulated in ascending l
    gram = np.zeros(channels.shape[:1] + channels.shape[-1:] * 2, dtype=complex)
    for l in range(problem.num_users):
        gram += adjoint(channels[l]) @ awa[l] @ channels[l]
    rhs = adjoint(arrays.direct) @ a @ w
    return set_padded_diagonal(hermitian_part(gram), arrays.tx_pad, 1.0), rhs


def _emmseia_solve_at(problem, grams, rhs, mu):
    constraints = problem.arrays.constraints
    systems = grams
    for m in range(problem.num_constraints):
        if mu[m] != 0.0:
            systems = systems + mu[m] * constraints[:, m]
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        pass
    # a singular system (zero multipliers on a rank-deficient gram): solve
    # user by user, least squares where singular
    precoders = np.empty_like(rhs)
    for k in range(problem.num_users):
        try:
            precoders[k] = np.linalg.solve(systems[k], rhs[k])
        except np.linalg.LinAlgError:
            precoders[k] = np.linalg.pinv(systems[k], hermitian=True) @ rhs[k]
    return precoders


def emmseia_precoder_update(problem, equalizers, weights, mu):
    """Precoders minimizing the multiplier-priced weighted MSE for fixed
    equalizers (joint, convex): solve
    (sum_l H_{l,k}^H A_l W_l A_l^H H_{l,k} + sum_m mu_m Phi_{k,m}) B_k
        = H_{k,k}^H A_k W_k."""
    grams, rhs = _emmseia_factors(problem, equalizers, weights)
    return _emmseia_solve_at(problem, grams, rhs, mu)


def _emmseia_multiplier_search(problem, equalizers, weights, mu, constraint_tol, max_iters=300):
    """Drive the multipliers to the complementary-slackness conditions:
    usage_m <= P_m (1 + tol) and |mu_m (P_m - usage_m)| <= 1e-3 P_m, with
    active constraints (mu_m meaningfully positive) pinned to the budget
    boundary within 1e-6 so the precoders vary smoothly across outer rounds.

    Projected subgradient in scaled coordinates: each step multiplies mu_m by
    a factor clip(1 + (usage_m/P_m - 1)/2, 1/2, 2), which matches the local
    usage ~ mu^-2 curvature, decays geometrically on slack constraints, and
    keeps exact zeros; zero multipliers restart from a small seed when their
    constraint becomes violated.
    """
    budgets = problem.budgets
    mu = np.asarray(mu, dtype=float).copy()
    grams, rhs = _emmseia_factors(problem, equalizers, weights)
    precoders = _emmseia_solve_at(problem, grams, rhs, mu)
    usage = constraint_usage(problem, precoders)
    for _ in range(max_iters):
        viol_ok = usage <= budgets * (1.0 + constraint_tol)
        slack_ok = np.abs(mu * (budgets - usage)) <= SLACKNESS_TOL * budgets
        if np.all(viol_ok) and np.all(slack_ok):
            break
        ratio = usage / np.maximum(budgets, 1e-300)
        factor = np.clip(1.0 + 0.5 * (ratio - 1.0), 0.5, 2.0)
        mu = mu * factor
        seed = 1e-6 * max(1.0, float(np.max(mu, initial=0.0)))
        mu[(mu == 0.0) & (ratio > 1.0)] = seed
        mu[mu < 1e-14 * max(1.0, float(np.max(mu, initial=0.0)))] = 0.0
        if np.max(mu, initial=0.0) > LAMBDA_CAP:
            raise NumericalFailureError("multiplier search diverged")
        precoders = _emmseia_solve_at(problem, grams, rhs, mu)
        usage = constraint_usage(problem, precoders)
    return mu, precoders, usage


# ---------------------------------------------------------------------------
# shared driver for dmmse / emmseia in both objectives
# ---------------------------------------------------------------------------

def _iterate_mse_family(problem, config, inner: str, objective: str, initial=None) -> BeamformerSolution:
    budgets = problem.budgets
    arrays = problem.arrays
    precoders = arrays.precoders(initialize_precoders(problem, config) if initial is None else initial)
    omegas = interference_covariances(problem, precoders)
    equalizers = mmse_equalizers(problem, precoders, omegas)
    lam = np.full(problem.num_constraints, config.lambda_init)
    fixed_weights = _diagonal_weights(problem) if inner == "dmmse" else arrays.mse_weights

    trace: list = []
    usage = constraint_usage(problem, precoders)
    best_residual = np.inf
    stall = 0
    diminish_from = None
    slack_ok = True
    iterations = 0
    polish_start = None

    def current_weights():
        if objective != "srm":
            return fixed_weights
        mats = srm_weight_update(problem, precoders, omegas)
        return _stream_weights(problem, mats) if inner == "dmmse" else mats

    def one_pass(weights, lam_now, mu_now):
        nonlocal precoders, equalizers, usage, slack_ok, omegas
        if inner == "dmmse":
            precoders = _dmmse_precoder_step(problem, precoders, equalizers, weights, lam_now,
                                             omegas=omegas)
            omegas = interference_covariances(problem, precoders)
            equalizers = mmse_equalizers(problem, precoders, omegas)
            usage = constraint_usage(problem, precoders)
            return mu_now
        equalizers = mmse_equalizers(problem, precoders, omegas)
        # search to half the tolerance so the returned point clears it with margin
        mu_now, precoders_new, usage_new = _emmseia_multiplier_search(
            problem, equalizers, weights, mu_now, 0.5 * config.constraint_tol
        )
        precoders = precoders_new
        omegas = interference_covariances(problem, precoders)
        usage = usage_new
        slack_ok = bool(np.all(np.abs(mu_now * (budgets - usage)) <= SLACKNESS_TOL * budgets))
        return mu_now

    def objective_value():
        if objective == "srm":
            return sum_rate(problem, precoders, omegas=omegas)
        return wsmse_objective(problem, precoders, equalizers, omegas=omegas)

    # The inner subproblem at fixed multipliers minimizes the priced
    # objective wsmse + lam.(usage - P); its per-iteration values are the
    # provably non-increasing descent quantity, recorded for diagnostics.
    priced_trace: list = []

    def record_objective(lam_now):
        trace.append(objective_value())
        if inner == "dmmse" and objective == "wsmmse":
            priced_trace.append(trace[-1] + float(np.dot(lam_now, usage - budgets)))

    def pricing_exit_ok():
        if _max_violation(usage, budgets) > config.constraint_tol or not slack_ok:
            return False
        if inner == "dmmse" and active_residual(usage, budgets, lam) > config.constraint_tol:
            return False
        return _objective_stable(trace, config.inner_tol)

    mu = lam.copy()  # emmseia carries its KKT multipliers across rounds
    pricing_budget = config.max_outer
    for _ in range(MAX_POLISH_ROUNDS):
        # pricing phase: multiplier updates interleaved with the alternation
        while pricing_budget > 0:
            pricing_budget -= 1
            weights = current_weights()
            mu = one_pass(weights, lam, mu)
            iterations += 1
            record_objective(lam)
            if pricing_exit_ok():
                break
            if inner == "dmmse" and config.subgradient_step > 0:
                residual = active_residual(usage, budgets, lam)
                if residual < best_residual - 1e-12:
                    best_residual = residual
                    stall = 0
                else:
                    stall += 1
                    if stall >= 50 and diminish_from is None:
                        diminish_from = iterations
                step = config.subgradient_step if diminish_from is None \
                    else config.subgradient_step / np.sqrt(1 + iterations - diminish_from)
                lam = np.maximum(LAMBDA_FLOOR, lam + step * (usage - budgets))
                if np.max(lam) > LAMBDA_CAP:
                    raise NumericalFailureError(
                        f"power-price multipliers diverged (max {np.max(lam):.3e}, "
                        f"violation {_max_violation(usage, budgets):.3e})"
                    )
        if inner != "dmmse":
            break
        # Fixed-multiplier polish: run the inner alternation to its fixed
        # point so the error covariances become diagonal to tolerance.  The
        # inner fixed point can drift usage off the budgets when the
        # multipliers were not fully settled; re-enter pricing if so.
        polish_start = len(trace)
        for _ in range(config.max_inner):
            weights = current_weights()
            previous = precoders  # one_pass binds a new stack
            one_pass(weights, lam, mu)
            iterations += 1
            record_objective(lam)
            offdiag = _mse_offdiag(problem, precoders, omegas)
            drift = float(np.max(_norms(precoders - previous) / np.maximum(_norms(precoders), 1e-300)))
            if offdiag <= OFFDIAG_TOL and drift <= 1e-9:
                break
        if _max_violation(usage, budgets) <= config.constraint_tol or pricing_budget <= 0:
            break

    violation = _max_violation(usage, budgets)
    if objective == "srm" and violation > config.constraint_tol:
        # the weights move every pass, so an unconverged stop can sit over
        # a budget; return the iterate scaled back into every budget
        precoders, usage = fit_to_budgets(problem, precoders)
        omegas = interference_covariances(problem, precoders)
    offdiag = _mse_offdiag(problem, precoders, omegas) if inner == "dmmse" else None
    converged = violation <= config.constraint_tol and slack_ok and _objective_stable(trace, config.inner_tol)
    if inner == "dmmse":
        converged = converged and offdiag is not None and offdiag <= OFFDIAG_TOL

    diagnostics = {
        "usage": usage,
        "max_violation": max(_max_violation(usage, budgets), 0.0),
        "objective": objective,
    }
    if objective == "srm":
        diagnostics["unscaled_max_violation"] = max(violation, 0.0)
    if inner == "dmmse":
        diagnostics["offdiag"] = offdiag
        diagnostics["polish_start"] = polish_start
        if priced_trace:
            diagnostics["priced_trace"] = priced_trace
    multipliers = lam if inner == "dmmse" else mu
    return BeamformerSolution(
        precoders=cut_padding(precoders, problem.tx_dims, problem.streams),
        equalizers=cut_padding(mmse_equalizers(problem, precoders), problem.rx_dims, problem.streams),
        multipliers=np.asarray(multipliers, dtype=float),
        trace=trace,
        iterations=iterations,
        converged=bool(converged),
        diagnostics=diagnostics,
    )


def dmmse_solve(problem: InterferenceProblem, config: AlgorithmConfig | None = None,
                initial=None) -> BeamformerSolution:
    """Diagonalizing weighted-MMSE design (see module docstring).

    The weighted-MSE objective requires diagonal weights; in 'srm' mode the
    reweighting loop supplies them as diag(E_k^{-1}).
    """
    config = (config or AlgorithmConfig(algorithm="dmmse")).validate()
    if config.objective == "srm":
        return srm_outer_loop(problem, config, inner="dmmse", initial=initial)
    return _iterate_mse_family(problem, config, "dmmse", "wsmmse", initial=initial)


def emmseia_solve(problem: InterferenceProblem, config: AlgorithmConfig | None = None,
                  initial=None) -> BeamformerSolution:
    """Interference-aligning MMSE design with joint precoder updates and a
    KKT multiplier search per round (see module docstring)."""
    config = (config or AlgorithmConfig(algorithm="emmseia")).validate()
    if config.objective == "srm":
        return srm_outer_loop(problem, config, inner="emmseia", initial=initial)
    return _iterate_mse_family(problem, config, "emmseia", "wsmmse", initial=initial)


def srm_outer_loop(problem: InterferenceProblem, config: AlgorithmConfig,
                   inner: str = "dmmse", initial=None) -> BeamformerSolution:
    """Sum-rate maximization by alternating inverse-MSE weight refreshes
    with one pass of the chosen weighted-MSE solver; terminates when the
    rate is stable over five rounds and the constraints hold.  The returned
    precoders meet every budget by construction: an over-budget last
    iterate is scaled back with :func:`fit_to_budgets` and reported as
    unconverged."""
    if inner not in ("dmmse", "emmseia"):
        raise ConfigurationError("the reweighting loop supports inner solvers 'dmmse' and 'emmseia'")
    config = config.validate()
    return _iterate_mse_family(problem, config, inner, "srm", initial=initial)


# ---------------------------------------------------------------------------
# pwf
# ---------------------------------------------------------------------------

def _cov_interferences(problem, covariances):
    """Omega_k = I + sum_{l != k} H_{k,l} Sigma_l H_{k,l}^H for every
    receiver k, as the padded (K, m_r, m_r) stack."""
    cross = problem.arrays.cross
    # received[k, l] = H_{k,l} Sigma_l H_{k,l}^H, l != k
    received = cross @ np.asarray(covariances) @ adjoint(cross)
    eye = np.eye(cross.shape[-2], dtype=complex)
    return hermitian_part(sum_over_sources(eye, received))


def _cov_totals(problem, covariances):
    """Per user, Omega_k and Omega_k + H_kk Sigma_k H_kk^H."""
    omegas = _cov_interferences(problem, covariances)
    h = problem.arrays.direct
    return omegas, omegas + h @ np.asarray(covariances) @ adjoint(h)


def _cov_rate(problem, covariances, totals=None) -> float:
    omegas, totals = _cov_totals(problem, covariances) if totals is None else totals
    ld1, ld0 = np.linalg.slogdet(totals)[1], np.linalg.slogdet(omegas)[1]
    rate = 0.0
    for a, b in zip(ld1, ld0):
        rate += (a - b) / np.log(2.0)
    return float(rate)


def _dual_covariances(problem, covariances, water_level, totals=None):
    """Reversed-link transmit covariances from their defining identity:
    (1/mu) (Omega_k^{-1} - (Omega_k + H_kk Sigma_k H_kk^H)^{-1})."""
    omegas, totals = _cov_totals(problem, covariances) if totals is None else totals
    return hermitian_part((np.linalg.inv(omegas) - np.linalg.inv(totals)) / water_level)


def _pwf_forward(problem, covariances, dual_covariances, lam, omegas=None):
    """One forward waterfilling pass: whiten each direct channel by the
    forward and reversed-link interference covariances, allocate
    p_i = [1/mu - 1/g_i]^+ on the leading singular directions, and bisect the
    shared water level so the multiplier-weighted usage meets the
    multiplier-weighted budget.  ``omegas`` are the forward interference
    covariances of ``covariances`` when the caller has them.  Returns the
    new covariances as the padded (K, m_t, m_t) stack and the water level;
    padded streams get no power."""
    arrays = problem.arrays
    if omegas is None:
        omegas = _cov_interferences(problem, covariances)
    target = float(np.dot(lam, problem.budgets))
    cross, direct = arrays.cross, arrays.direct
    priced = _priced_weights(problem, lam)
    # omega_hat[k] = priced[k] + sum_{j != k} H_{j,k}^H Sigma_hat_j H_{j,k}, ascending j
    omega_hat = priced.copy()
    for j, dual in enumerate(dual_covariances):
        omega_hat += adjoint(cross[j]) @ dual @ cross[j]
    omega_hat = set_padded_diagonal(hermitian_part(omega_hat), arrays.tx_pad, 1.0)
    s_fwd, ok_fwd = psd_inv_sqrt_batch(omegas)
    s_hat, ok_hat = psd_inv_sqrt_batch(omega_hat)
    for k in np.flatnonzero(~(ok_fwd & ok_hat)):
        psd_inv_sqrt(omegas[k])  # raises the per-user error
        psd_inv_sqrt(omega_hat[k])
    whitened = s_fwd @ direct @ s_hat
    d = arrays.mse_weights.shape[-1]
    _, sing, right = np.linalg.svd(whitened, full_matrices=False)
    right = adjoint(right)[..., :d]
    gains = sing[:, :d] ** 2
    cmat = adjoint(right) @ s_hat @ priced @ s_hat @ right
    coefs = np.maximum(np.diagonal(cmat, axis1=-2, axis2=-1).real, 0.0)
    keep = gains > 1e-12 * np.maximum(1.0, np.max(gains, axis=-1, initial=0.0))[:, None]
    keep[arrays.stream_pad] = False
    mu = _water_level(gains[keep], coefs[keep], target)
    powers = np.zeros_like(gains)
    powers[keep] = np.maximum(1.0 / mu - 1.0 / gains[keep], 0.0)
    factor = s_hat @ (right * np.sqrt(powers)[:, None, :])
    return hermitian_part(factor @ adjoint(factor)), float(mu)


def _water_level(gains_flat, coefs_flat, target):
    """Bisect the shared water level mu so that the multiplier-weighted usage
    sum_i c_i [1/mu - 1/g_i]^+ meets ``target``."""

    inv_gains = 1.0 / gains_flat

    def weighted_usage(mu):
        return float(np.add.reduce(coefs_flat * np.maximum(1.0 / mu - inv_gains, 0.0)))

    if gains_flat.size == 0 or np.sum(coefs_flat) <= 0 or target <= 0:
        raise NumericalFailureError("waterfilling cannot meet the multiplier-weighted budget")
    lo = 1e-12
    guard = 0
    while weighted_usage(lo) < target:
        lo *= 1e-2
        guard += 1
        if guard > 100:
            raise NumericalFailureError("water-level bisection could not bracket the budget from below")
    hi = max(1.0, 2.0 * lo)
    guard = 0
    while weighted_usage(hi) > target:
        hi *= 2.0
        guard += 1
        if guard > 200:
            raise NumericalFailureError("water-level bisection could not bracket the budget from above")
    mu = 0.5 * (lo + hi)
    tol = 1e-9 * max(1.0, target)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        u = weighted_usage(mu)
        if abs(u - target) <= tol:
            break
        if u > target:
            lo = mu
        else:
            hi = mu
    else:
        raise NumericalFailureError("water-level bisection did not converge")
    return mu


def _cov_usage(problem, covariances) -> np.ndarray:
    usage = np.zeros(problem.num_constraints)
    traces = np.trace(problem.arrays.constraints @ np.asarray(covariances)[:, None], axis1=-2, axis2=-1)
    for row in traces.real:
        usage += row
    return usage


def pwf_fixed_point_residual(problem: InterferenceProblem, state: DualNetworkState) -> float:
    """Re-evaluate the coupled covariance equations at ``state`` and return
    the worst relative deviation of the reproduced transmit covariances."""
    covariances = pad_stack(state.covariances, problem.arrays.constraints.shape[-2:])
    duals = _dual_covariances(problem, covariances, state.water_level)
    reproduced, _ = _pwf_forward(problem, covariances, duals, state.multipliers)
    old_norms = _norms(covariances)
    scale = max(float(np.max(old_norms)), 1e-300)
    return float(np.max(_norms(reproduced - covariances) / np.maximum(old_norms, 1e-12 * scale)))


def pwf_solve(problem: InterferenceProblem, config: AlgorithmConfig | None = None,
              initial=None) -> BeamformerSolution:
    """Covariance fixed-point solver for the sum-rate objective (see module
    docstring).  The returned precoders meet every budget by construction:
    an over-budget last iterate is scaled back with :func:`fit_to_budgets`
    and reported as unconverged.  The diagnostics carry the last iterate's
    :class:`DualNetworkState` for structural verification."""
    config = (config or AlgorithmConfig(algorithm="pwf", objective="srm")).validate()
    arrays = problem.arrays
    precoders = arrays.precoders(initialize_precoders(problem, config) if initial is None else initial)
    covariances = precoders @ adjoint(precoders)
    lam = np.full(problem.num_constraints, config.lambda_init)
    mu = 1.0
    totals = _cov_totals(problem, covariances)
    duals = _dual_covariances(problem, covariances, mu, totals)
    budgets = problem.budgets

    trace: list = []
    iterations = 0
    best_residual = np.inf
    stall = 0
    diminish_from = None
    pricing_budget = config.max_outer
    usage = _cov_usage(problem, covariances)
    for _ in range(MAX_POLISH_ROUNDS):
        # pricing phase: damped multiplicative multiplier ascent.  The
        # undamped ratio update limit-cycles on strongly coupled instances;
        # the damping exponent diminishes once the active residual stalls,
        # averaging any remaining cycle out.
        priced_converged = False
        while pricing_budget > 0:
            pricing_budget -= 1
            covariances, mu = _pwf_forward(problem, covariances, duals, lam, totals[0])
            totals = _cov_totals(problem, covariances)
            duals = _dual_covariances(problem, covariances, mu, totals)
            usage = _cov_usage(problem, covariances)
            iterations += 1
            trace.append(_cov_rate(problem, covariances, totals))
            violation = _max_violation(usage, budgets)
            residual = active_residual(usage, budgets, lam)
            if violation <= config.constraint_tol and residual <= config.constraint_tol \
                    and _objective_stable(trace, config.inner_tol):
                priced_converged = True
                break
            if residual < best_residual - 1e-12:
                best_residual = residual
                stall = 0
            else:
                stall += 1
                if stall >= 30 and diminish_from is None:
                    diminish_from = iterations
            eta = 0.5 if diminish_from is None \
                else 0.5 / np.sqrt(1 + (iterations - diminish_from) / 10.0)
            ratio = np.clip(usage / np.maximum(budgets, 1e-300), 0.25, 4.0)
            lam = np.clip(lam * np.maximum(ratio, LAMBDA_FLOOR) ** eta, LAMBDA_FLOOR, LAMBDA_CAP)

        if not priced_converged:
            break
        # Fixed-multiplier polish to the covariance fixed point (only from a
        # feasible pricing state; the map can diverge at far-off multipliers).
        # The fixed point can drift usage off the budgets when the
        # multipliers were not fully settled; re-enter pricing if so.
        prev_delta = np.inf
        growth = 0
        for _ in range(config.max_inner):
            new_cov, mu = _pwf_forward(problem, covariances, duals, lam, totals[0])
            totals = _cov_totals(problem, new_cov)
            duals = _dual_covariances(problem, new_cov, mu, totals)
            iterations += 1
            trace.append(_cov_rate(problem, new_cov, totals))
            old_norms = _norms(covariances)
            scale = max(float(np.max(old_norms)), 1e-300)
            delta = float(np.max(_norms(new_cov - covariances) / np.maximum(old_norms, 1e-12 * scale)))
            covariances = new_cov
            if delta <= PWF_POLISH_TOL:
                break
            growth = growth + 1 if delta > 2.0 * prev_delta else 0
            if growth >= 2:
                break
            prev_delta = delta
        usage = _cov_usage(problem, covariances)
        if _max_violation(usage, budgets) <= config.constraint_tol or pricing_budget <= 0:
            break
    usage = _cov_usage(problem, covariances)
    violation = _max_violation(usage, budgets)

    state = DualNetworkState(
        covariances=tuple(cut_padding(covariances, problem.tx_dims, problem.tx_dims)),
        dual_covariances=tuple(cut_padding(duals, problem.rx_dims, problem.rx_dims)),
        multipliers=lam.copy(),
        water_level=mu,
    )
    precoders = []
    for cov, d in zip(state.covariances, problem.streams):
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(-vals, kind="stable")[:d]
        precoders.append(vecs[:, order] * np.sqrt(np.maximum(vals[order], 0.0)))
    precoders = arrays.precoders(precoders)
    converged = violation <= config.constraint_tol and _objective_stable(trace, config.inner_tol)
    if violation > config.constraint_tol:
        precoders, usage = fit_to_budgets(problem, precoders)
    return BeamformerSolution(
        precoders=cut_padding(precoders, problem.tx_dims, problem.streams),
        equalizers=cut_padding(mmse_equalizers(problem, precoders), problem.rx_dims, problem.streams),
        multipliers=lam.copy(),
        trace=trace,
        iterations=iterations,
        converged=bool(converged),
        diagnostics={"usage": usage, "max_violation": max(_max_violation(usage, budgets), 0.0),
                     "unscaled_max_violation": max(violation, 0.0), "state": state,
                     "objective": "srm"},
    )


# ---------------------------------------------------------------------------
# min_leakage
# ---------------------------------------------------------------------------

def min_leakage_solve(system: PartialCooperationSystem, config: AlgorithmConfig | None = None,
                      initial=None) -> BeamformerSolution:
    """Interference-leakage minimization on the physical (per-BS) form.

    Precoder factors are orthonormal with the per-BS budget split equally
    over served streams, B_{k,m} = sqrt(P_m / (K_m d_k)) Bbar_{k,m}; receive
    filters are orthonormal.  Each half-step takes the eigenvectors of the
    d_k smallest eigenvalues of the leakage quadratic form (receive side:
    interference covariance at user k; transmit side: its exact conjugate
    over all victim receivers), so the leakage is non-increasing per
    half-step.  The stacked solution meets every per-BS budget exactly; the
    diagnostics carry the per-BS ``usage``, sum_k (P_m / (K_m d_k))
    ||Bbar_{k,m}||_F^2 over the users k that BS m serves, and its
    ``max_violation``.

    The solve runs batched over the (user, serving-BS) pairs: the factors
    are one (K, c, nt, d) stack for the largest serving-set size c and
    stream count d, zero on the padded streams, with power share 0 on the
    padded slots, and each half-step is one stacked ``eigh``.  The quadratic forms are summed over the other
    users (and their serving BSs) in ascending order, with exact zeros in
    place of the skipped terms, so a problem without padding gets the
    per-pair loop's numbers bit for bit.  The receive-side forms built for a
    round's leakage value serve the next round's receive update.
    ``initial`` gives per user the list of its (nt, d_k) factors.
    """
    config = (config or AlgorithmConfig(algorithm="min_leakage")).validate()
    k_users = system.num_users
    nt, nr = system.nt, system.nr
    streams = system.streams
    if max(streams) > nt:
        raise ContractViolationError(
            f"min_leakage needs d_k <= nt per serving BS; got streams {streams} with nt={nt}"
        )
    width = max(len(sset) for sset in system.serving_sets)
    d_max = max(streams)
    served_count = [len(system.served_users(m)) for m in range(system.num_bs)]
    # (K, c) tables of each pair's BS and power share; padded slots get BS 0
    # and share 0
    bs_of = np.zeros((k_users, width), dtype=int)
    coef = np.zeros((k_users, width))
    for k, sset in enumerate(system.serving_sets):
        for pos, m in enumerate(sset):
            bs_of[k, pos] = m
            coef[k, pos] = float(system.bs_power[m]) / (served_count[m] * streams[k])
    pairs = [(k, pos) for k, sset in enumerate(system.serving_sets) for pos in range(len(sset))]
    # (K, 1, d): 1 on each user's own streams
    stream_mask = (np.arange(d_max) < np.array(streams)[:, None])[:, None, :]

    rng = np.random.default_rng(config.init_seed)
    factors = np.zeros((k_users, width, nt, d_max), dtype=complex)
    for k, pos in pairs:
        d = streams[k]
        if initial is not None:
            factors[k, pos, :, :d] = np.asarray(initial[k][pos], dtype=complex)
        elif config.initialization == "scaled_identity":
            factors[k, pos, :d, :d] = np.eye(d)
        else:
            z = rng.standard_normal((nt, d)) + 1j * rng.standard_normal((nt, d))
            factors[k, pos, :, :d], _ = np.linalg.qr(z)

    users = np.arange(k_users)
    serving_channels = system.channels[:, bs_of]  # (K, K, c, nr, nt): H_{k, m(j, pos)}
    channels_h = adjoint(system.channels)  # (K, M, nt, nr)
    zero_rx = np.zeros((nr, nr), dtype=complex)
    zero_tx = np.zeros((nt, nt), dtype=complex)

    def interference_forms(factors):
        # hb[k, j, pos] = H_{k, m(j, pos)} Bbar_{j, pos}; user k's own pairs drop out
        hb = serving_channels @ factors
        terms = coef[:, :, None, None] * (hb @ adjoint(hb))
        terms[users, users] = 0.0
        forms = sum_over_sources(zero_rx, terms.reshape(k_users, k_users * width, nr, nr))
        return hermitian_part(forms)

    def leakage(forms, equalizers):
        total = 0.0
        for value in np.trace(adjoint(equalizers) @ forms @ equalizers, axis1=-2, axis2=-1).real:
            total += float(value)
        return total

    def smallest_eigvecs(forms, mask):
        vecs = np.linalg.eigh(hermitian_part(forms))[1][..., :d_max]
        vecs *= mask
        return vecs

    forms = interference_forms(factors)
    equalizers = np.zeros((k_users, nr, d_max), dtype=complex)
    trace: list = []
    iterations = 0
    converged = False
    prev_round = None
    for j in range(1, config.max_outer + 1):
        iterations = j
        equalizers = smallest_eigvecs(forms, stream_mask)
        trace.append(leakage(forms, equalizers))
        # ha[i, m] = H_{i,m}^H A_i; the form of pair (k, pos) sums
        # P_m/(K_m d_k) ha ha^H over the victims i != k at its BS m
        ha = channels_h @ equalizers[:, None]
        victims = (ha @ adjoint(ha))[:, bs_of]  # (K_i, K, c, nt, nt)
        terms = coef[:, :, None, None, None] * np.moveaxis(victims, 0, 2)
        terms[users, :, users] = 0.0
        qhat = sum_over_sources(zero_tx, terms.reshape(k_users * width, k_users, nt, nt))
        factors = smallest_eigvecs(qhat.reshape(k_users, width, nt, nt), stream_mask[:, None])
        forms = interference_forms(factors)
        trace.append(leakage(forms, equalizers))
        if prev_round is not None and abs(trace[-1] - prev_round) <= config.inner_tol * max(1.0, trace[-1]):
            converged = True
            break
        if trace[-1] <= 1e-15:
            converged = True
            break
        prev_round = trace[-1]

    pair_factors = [[factors[k, pos, :, :streams[k]] for pos in range(len(sset))]
                    for k, sset in enumerate(system.serving_sets)]
    scaled = np.sqrt(coef)[:, :, None, None] * factors
    precoders = [scaled[k, :len(sset), :, :streams[k]].reshape(len(sset) * nt, streams[k])
                 for k, sset in enumerate(system.serving_sets)]
    norms = _norms(factors.reshape(k_users * width, nt, d_max)).reshape(k_users, width)
    usage = np.zeros(system.num_bs)
    for k, pos in pairs:
        usage[bs_of[k, pos]] += coef[k, pos] * float(norms[k, pos]) ** 2
    cut_equalizers = [equalizers[k, :, :streams[k]] for k in range(k_users)]
    state = LeakageState(
        factors=tuple(tuple(user_factors) for user_factors in pair_factors),
        equalizers=tuple(cut_equalizers),
        leakage=trace[-1] if trace else 0.0,
    )
    return BeamformerSolution(
        precoders=precoders,
        equalizers=[a.copy() for a in cut_equalizers],
        multipliers=np.zeros(system.num_bs),
        trace=trace,
        iterations=iterations,
        converged=bool(converged),
        diagnostics={"usage": usage, "max_violation": max(_max_violation(usage, system.bs_power), 0.0),
                     "state": state, "objective": "leakage"},
    )


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def solve_system(system: PartialCooperationSystem, config: AlgorithmConfig,
                 mse_weights=None) -> tuple:
    """Build the stacked interference problem for ``system`` and run the
    configured algorithm; returns (problem, solution)."""
    config = config.validate()
    problem = build_interference_problem(system, mse_weights=mse_weights)
    if config.algorithm == "dmmse":
        solution = dmmse_solve(problem, config)
    elif config.algorithm == "emmseia":
        solution = emmseia_solve(problem, config)
    elif config.algorithm == "pwf":
        solution = pwf_solve(problem, config)
    else:
        solution = min_leakage_solve(system, config)
    return problem, solution
