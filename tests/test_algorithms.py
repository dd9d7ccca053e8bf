"""Multiuser algorithm tests: structural identities, descent, feasibility,
and degenerate cases for all four solver families."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from netmimo import (
    AlgorithmConfig,
    ConfigurationError,
    InterferenceProblem,
    PartialCooperationSystem,
    ScenarioConfig,
    build_interference_problem,
    constraint_usage,
    dmmse_solve,
    emmseia_solve,
    lagrangian_minimizer,
    min_leakage_solve,
    mmse_equalizer,
    mse_matrix_mmse,
    pwf_fixed_point_residual,
    pwf_solve,
    realize,
    solve_multi_constraint,
    srm_outer_loop,
    sum_rate,
    wsmse_objective,
)
from netmimo.algorithms import (
    emmseia_precoder_update,
    fit_to_budgets,
    initialize_precoders,
    offdiag_mass,
)
from netmimo.single_user import SingleUserProblem

from conftest import antenna_link, dense_link


def cellular_problem(seed, **kwargs):
    defaults = dict(cluster_size=3, users_per_cell=1, nt=4, nr=2, streams=2,
                    cooperation_factor=2, boundary_snr_db=20.0, seed=seed)
    defaults.update(kwargs)
    system = realize(ScenarioConfig(**defaults))
    return system, build_interference_problem(system)


def single_pair_problem(h, budget=1.0):
    h = np.asarray(h, dtype=complex)
    mr, mt = h.shape
    return InterferenceProblem.from_blocks(
        channels=((h,),),
        constraints=((np.eye(mt, dtype=complex),),),
        budgets=[budget], streams=[min(mr, mt)],
        mse_weights=(np.eye(min(mr, mt)),),
    )


def zero_problem():
    z = np.zeros((2, 3), dtype=complex)
    eye = np.eye(3, dtype=complex)
    zero = np.zeros((3, 3), dtype=complex)
    return InterferenceProblem.from_blocks(
        channels=((z, z), (z, z)),
        constraints=((eye, zero), (zero, eye)),
        budgets=[1.0, 1.0], streams=[2, 2],
        mse_weights=(np.eye(2), np.eye(2)),
    )


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AlgorithmConfig(algorithm="nope").validate()
    with pytest.raises(ConfigurationError):
        AlgorithmConfig(algorithm="min_leakage", objective="srm").validate()
    with pytest.raises(ConfigurationError):
        AlgorithmConfig(algorithm="pwf", objective="wsmmse").validate()
    with pytest.raises(ConfigurationError):
        AlgorithmConfig(inner_tol=0.0).validate()
    AlgorithmConfig(algorithm="pwf", objective="srm").validate()


def test_initialization_feasible_and_orthonormal():
    _, problem = cellular_problem(0)
    for policy in ("scaled_identity", "random_orthonormal"):
        cfg = AlgorithmConfig(initialization=policy, init_seed=3)
        precoders = initialize_precoders(problem, cfg)
        usage = constraint_usage(problem, precoders)
        assert np.all(usage <= problem.budgets + 1e-12)
        for b in precoders:
            gram = b.conj().T @ b
            assert np.allclose(gram, gram[0, 0] * np.eye(b.shape[1]), atol=1e-10)


# ---------------------------------------------------------------------------
# dmmse
# ---------------------------------------------------------------------------

def test_dmmse_single_user_step_matches_power_priced_minimizer():
    # K=1 with fixed multipliers degenerates to the single-user minimizer
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    problem = single_pair_problem(h)
    lam = 0.7
    from netmimo.algorithms import _dmmse_precoder_step
    b0 = initialize_precoders(problem, AlgorithmConfig())
    a0 = [mmse_equalizer(problem, b0, 0)]
    stepped = _dmmse_precoder_step(problem, b0, a0, [np.ones(2)], np.array([lam]))
    su = SingleUserProblem(channel=h, noise_cov=np.eye(2),
                           constraints=(np.eye(3, dtype=complex),), budgets=[1.0],
                           weights=np.ones(2), streams=2)
    direct = lagrangian_minimizer(su, lam * np.eye(3, dtype=complex))
    assert np.array_equal(stepped[0], direct)


def test_dmmse_symmetric_instance():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    g = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    eye, zero = np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex)
    problem = InterferenceProblem.from_blocks(
        channels=((h, g), (g, h)),
        constraints=((eye, zero), (zero, eye)),
        budgets=[1.0, 1.0], streams=[2, 2], mse_weights=(np.eye(2), np.eye(2)),
    )
    sol = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse"))
    e0 = float(np.trace(mse_matrix_mmse(problem, sol.precoders, 0)).real)
    e1 = float(np.trace(mse_matrix_mmse(problem, sol.precoders, 1)).real)
    assert abs(e0 - e1) <= 1e-6


def test_dmmse_diagonalizes_and_satisfies_constraints():
    for seed in range(3):
        _, problem = cellular_problem(seed)
        sol = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse"))
        assert sol.converged
        assert sol.diagnostics["max_violation"] <= 1e-2
        for k in range(problem.num_users):
            e = mse_matrix_mmse(problem, sol.precoders, k)
            assert offdiag_mass(e) <= 1e-8


def test_dmmse_priced_descent_at_fixed_multipliers():
    # the inner alternation minimizes wsmse + lam.(usage - P); its trace is
    # non-increasing when the multipliers are frozen
    for seed in range(3):
        _, problem = cellular_problem(seed)
        cfg = AlgorithmConfig(algorithm="dmmse", subgradient_step=0.0,
                              lambda_init=0.5, max_outer=120, max_inner=40)
        sol = dmmse_solve(problem, cfg)
        priced = sol.diagnostics["priced_trace"]
        assert len(priced) > 10
        assert all(b <= a + 1e-9 for a, b in zip(priced, priced[1:]))


def test_dmmse_rejects_non_diagonal_weights():
    _, problem = cellular_problem(0)
    w = np.full((2, 2), 0.5) + np.eye(2)
    weights = problem.mse_weights.copy()
    weights[0] = w
    bad = replace(problem, mse_weights=weights)
    from netmimo.errors import ContractViolationError
    with pytest.raises(ContractViolationError):
        dmmse_solve(bad, AlgorithmConfig(algorithm="dmmse"))


# ---------------------------------------------------------------------------
# emmseia
# ---------------------------------------------------------------------------

def test_emmseia_precoder_formula_scalar():
    # (H^H A W A^H H + mu Phi)^{-1} H^H A W = (0.25 + 0.25)^{-1} 0.5 = 1
    problem = single_pair_problem(np.array([[1.0]]))
    b = emmseia_precoder_update(problem, [np.array([[0.5 + 0j]])], [np.eye(1)], np.array([0.25]))
    assert np.allclose(b[0], [[1.0]])


def test_emmseia_zero_channels():
    problem = zero_problem()
    sol = emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia", max_outer=50))
    assert all(np.linalg.norm(b) == 0.0 for b in sol.precoders)
    assert np.all(np.abs(sol.multipliers * problem.budgets) <= 1e-3)


def test_emmseia_feasibility_and_slackness():
    for seed in range(3):
        _, problem = cellular_problem(seed)
        sol = emmseia_solve(problem, AlgorithmConfig(algorithm="emmseia"))
        usage = constraint_usage(problem, sol.precoders)
        assert np.all(usage <= problem.budgets * 1.01)
        assert np.all(np.abs(sol.multipliers * (problem.budgets - usage)) <= 1e-3 * problem.budgets)


def test_emmseia_joint_descent_at_fixed_multipliers():
    # with mu frozen at zero both half-steps minimize the plain weighted MSE
    _, problem = cellular_problem(1)
    weights = list(problem.mse_weights)
    precoders = initialize_precoders(problem, AlgorithmConfig())
    mu = np.zeros(problem.num_constraints)
    values = []
    for _ in range(40):
        equalizers = [mmse_equalizer(problem, precoders, k) for k in range(problem.num_users)]
        precoders = emmseia_precoder_update(problem, equalizers, weights, mu)
        equalizers = [mmse_equalizer(problem, precoders, k) for k in range(problem.num_users)]
        values.append(wsmse_objective(problem, precoders, equalizers))
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    # with mu frozen at a positive value the priced objective descends
    mu = np.full(problem.num_constraints, 0.4)
    precoders = initialize_precoders(problem, AlgorithmConfig())
    priced = []
    for _ in range(40):
        equalizers = [mmse_equalizer(problem, precoders, k) for k in range(problem.num_users)]
        precoders = emmseia_precoder_update(problem, equalizers, weights, mu)
        equalizers = [mmse_equalizer(problem, precoders, k) for k in range(problem.num_users)]
        usage = constraint_usage(problem, precoders)
        priced.append(
            wsmse_objective(problem, precoders, equalizers)
            + float(np.dot(mu, usage - problem.budgets))
        )
    assert all(b <= a + 1e-9 for a, b in zip(priced, priced[1:]))


# ---------------------------------------------------------------------------
# pwf
# ---------------------------------------------------------------------------

def test_pwf_scalar_closed_form():
    # lam=1, Phi=1, H=2, Omega=1, P=1: gain 4, water level 0.8, Sigma = 1
    problem = single_pair_problem(np.array([[2.0]]))
    from netmimo.algorithms import _pwf_forward, _dual_covariances
    zero = [np.zeros((1, 1), dtype=complex)]
    cov, mu = _pwf_forward(problem, zero, zero, np.array([1.0]))
    assert mu == pytest.approx(0.8, abs=1e-6)
    assert cov[0][0, 0].real == pytest.approx(1.0, abs=1e-6)
    duals = _dual_covariances(problem, cov, mu)
    assert duals[0][0, 0].real == pytest.approx(1.0, abs=1e-6)


def test_pwf_multiplicative_update_direction():
    # twice the budget in use doubles the price before damping; the damped
    # update moves the same direction
    _, problem = cellular_problem(2)
    sol = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
    assert sol.converged
    usage = constraint_usage(problem, sol.precoders)
    assert np.all(usage <= problem.budgets * 1.01)


def test_pwf_fixed_point_structure():
    for seed in range(3):
        _, problem = cellular_problem(seed)
        sol = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
        assert sol.converged
        residual = pwf_fixed_point_residual(problem, sol.diagnostics["state"])
        assert residual <= 1e-6


def test_pwf_stream_truncation():
    _, problem = cellular_problem(3, streams=1)
    sol = pwf_solve(problem, AlgorithmConfig(algorithm="pwf", objective="srm"))
    for b in sol.precoders:
        assert b.shape[1] == 1
    assert sol.diagnostics["max_violation"] <= 1e-2


# ---------------------------------------------------------------------------
# min_leakage
# ---------------------------------------------------------------------------

def test_min_leakage_single_user_zero():
    rng = np.random.default_rng(4)
    chans = rng.standard_normal((1, 2, 2, 2)) + 1j * rng.standard_normal((1, 2, 2, 2))
    system = PartialCooperationSystem(nt=2, nr=2, bs_power=[1.0, 1.0], channels=chans,
                                      serving_sets=((0, 1),), streams=(1,))
    sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))
    assert sol.trace[-1] == pytest.approx(0.0, abs=1e-15)
    a = sol.equalizers[0]
    assert np.allclose(a.conj().T @ a, np.eye(1), atol=1e-10)


def test_min_leakage_orthogonal_alignment():
    # interference confined to the first receive coordinate: the single-stream
    # receive filter is the second basis vector and leaks nothing
    rng = np.random.default_rng(5)
    chans = np.zeros((2, 2, 2, 2), dtype=complex)
    chans[:, :, 0, :] = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    system = PartialCooperationSystem(nt=2, nr=2, bs_power=[1.0, 1.0], channels=chans,
                                      serving_sets=((0,), (1,)), streams=(1, 1))
    sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))
    assert sol.trace[-1] == pytest.approx(0.0, abs=1e-12)
    assert abs(sol.equalizers[0][1, 0]) == pytest.approx(1.0, abs=1e-10)


def test_min_leakage_monotone_and_orthonormal():
    rng = np.random.default_rng(6)
    chans = rng.standard_normal((3, 3, 2, 4)) + 1j * rng.standard_normal((3, 3, 2, 4))
    system = PartialCooperationSystem(nt=4, nr=2, bs_power=[1.0, 1.0, 1.0], channels=chans,
                                      serving_sets=((0, 1), (1, 2), (0, 2)), streams=(1, 1, 1))
    sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))
    assert all(b <= a + 1e-12 for a, b in zip(sol.trace, sol.trace[1:]))
    state = sol.diagnostics["state"]
    for user_factors in state.factors:
        for f in user_factors:
            assert np.allclose(f.conj().T @ f, np.eye(f.shape[1]), atol=1e-10)
    for a in state.equalizers:
        assert np.allclose(a.conj().T @ a, np.eye(a.shape[1]), atol=1e-10)
    # equal power split uses each BS budget exactly
    problem = build_interference_problem(system)
    assert np.allclose(constraint_usage(problem, sol.precoders), system.bs_power, atol=1e-10)


def test_min_leakage_transmit_receive_conjugacy():
    # the receive-side and transmit-side quadratic forms express the same
    # leakage value
    rng = np.random.default_rng(7)
    chans = rng.standard_normal((3, 2, 2, 3)) + 1j * rng.standard_normal((3, 2, 2, 3))
    system = PartialCooperationSystem(nt=3, nr=2, bs_power=[2.0, 1.0], channels=chans,
                                      serving_sets=((0,), (0, 1), (1,)), streams=(1, 1, 1))
    sol = min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage", max_outer=3))
    state = sol.diagnostics["state"]
    served = [len(system.served_users(m)) for m in range(2)]
    coef = {
        (k, m): float(system.bs_power[m]) / (served[m] * system.streams[k])
        for k in range(3) for m in system.serving_sets[k]
    }
    recv = 0.0
    for k in range(3):
        q = np.zeros((2, 2), dtype=complex)
        for j in range(3):
            if j == k:
                continue
            for pos, m in enumerate(system.serving_sets[j]):
                hb = system.channels[k, m] @ state.factors[j][pos]
                q += coef[(j, m)] * hb @ hb.conj().T
        recv += float(np.trace(state.equalizers[k].conj().T @ q @ state.equalizers[k]).real)
    tran = 0.0
    for k in range(3):
        for pos, m in enumerate(system.serving_sets[k]):
            qh = np.zeros((3, 3), dtype=complex)
            for j in range(3):
                if j == k:
                    continue
                ha = system.channels[j, m].conj().T @ state.equalizers[j]
                qh += coef[(k, m)] * ha @ ha.conj().T
            f = state.factors[k][pos]
            tran += float(np.trace(f.conj().T @ qh @ f).real)
    assert recv == pytest.approx(tran, rel=1e-10)


def reference_min_leakage(system, config, initial=None):
    """The per-pair loop min_leakage_solve replaced, kept as its oracle:
    returns (trace, iterations, converged, factors, equalizers, precoders,
    usage) built one (user, BS) pair at a time."""
    k_users, nt, nr = system.num_users, system.nt, system.nr
    served_count = [len(system.served_users(m)) for m in range(system.num_bs)]
    coef = [{m: float(system.bs_power[m]) / (served_count[m] * system.streams[k])
             for m in system.serving_sets[k]} for k in range(k_users)]

    def smallest_eigvecs(mat, d):
        return np.linalg.eigh(0.5 * (mat + mat.conj().T))[1][:, :d]

    rng = np.random.default_rng(config.init_seed)
    if initial is not None:
        factors = [[np.asarray(b, dtype=complex) for b in user_factors] for user_factors in initial]
    else:
        factors = []
        for k in range(k_users):
            d = system.streams[k]
            user_factors = []
            for _ in system.serving_sets[k]:
                if config.initialization == "scaled_identity":
                    b = np.zeros((nt, d), dtype=complex)
                    b[:d, :] = np.eye(d)
                else:
                    z = rng.standard_normal((nt, d)) + 1j * rng.standard_normal((nt, d))
                    b, _ = np.linalg.qr(z)
                user_factors.append(b)
            factors.append(user_factors)

    def interference_form(k):
        q = np.zeros((nr, nr), dtype=complex)
        for j in range(k_users):
            if j == k:
                continue
            for pos, m in enumerate(system.serving_sets[j]):
                hb = system.channels[k, m] @ factors[j][pos]
                q += coef[j][m] * (hb @ hb.conj().T)
        return 0.5 * (q + q.conj().T)

    def leakage(equalizers):
        total = 0.0
        for k in range(k_users):
            q = interference_form(k)
            total += float(np.trace(equalizers[k].conj().T @ q @ equalizers[k]).real)
        return total

    equalizers = [None] * k_users
    trace, iterations, converged, prev_round = [], 0, False, None
    for j in range(1, config.max_outer + 1):
        iterations = j
        for k in range(k_users):
            equalizers[k] = smallest_eigvecs(interference_form(k), system.streams[k])
        trace.append(leakage(equalizers))
        for k in range(k_users):
            for pos, m in enumerate(system.serving_sets[k]):
                qhat = np.zeros((nt, nt), dtype=complex)
                for i in range(k_users):
                    if i == k:
                        continue
                    ha = system.channels[i, m].conj().T @ equalizers[i]
                    qhat += coef[k][m] * (ha @ ha.conj().T)
                factors[k][pos] = smallest_eigvecs(qhat, system.streams[k])
        trace.append(leakage(equalizers))
        if prev_round is not None and abs(trace[-1] - prev_round) <= config.inner_tol * max(1.0, trace[-1]):
            converged = True
            break
        if trace[-1] <= 1e-15:
            converged = True
            break
        prev_round = trace[-1]

    precoders = []
    usage = np.zeros(system.num_bs)
    for k in range(k_users):
        sset = system.serving_sets[k]
        precoders.append(np.vstack([np.sqrt(coef[k][m]) * factors[k][pos] for pos, m in enumerate(sset)]))
        for pos, m in enumerate(sset):
            usage[m] += coef[k][m] * float(np.linalg.norm(factors[k][pos])) ** 2
    return trace, iterations, converged, factors, equalizers, precoders, usage


def _leakage_outputs(sol):
    state = sol.diagnostics["state"]
    return (sol.trace, sol.iterations, sol.converged, state.factors, state.equalizers,
            sol.precoders, sol.diagnostics["usage"])


def _flat(field):
    """The arrays of a (nested) list of arrays, in order."""
    if isinstance(field, np.ndarray):
        return [field]
    return [a for item in field for a in _flat(item)]


def _assert_identical(got, expected):
    """Same trace, iterations and convergence, and every factor, equalizer,
    precoder and usage array equal bit for bit."""
    assert got[:3] == expected[:3]
    for got_field, want_field in zip(got[3:], expected[3:]):
        pairs = list(zip(_flat(got_field), _flat(want_field)))
        assert len(pairs) == len(_flat(want_field))
        assert all(np.array_equal(g, w) and g.shape == w.shape for g, w in pairs)


LEAKAGE_CONFIGS = {
    "default": AlgorithmConfig(algorithm="min_leakage"),
    "long": AlgorithmConfig(algorithm="min_leakage", max_outer=6, inner_tol=1e-12),
    "random_init": AlgorithmConfig(algorithm="min_leakage", initialization="random_orthonormal",
                                   init_seed=3),
}


@pytest.mark.parametrize("sectors", [1, 3, 6])
@pytest.mark.parametrize("name", sorted(LEAKAGE_CONFIGS))
def test_min_leakage_matches_per_pair_reference_bit_for_bit(name, sectors):
    # uniform drops (the sector_drops shape): the batched solve reproduces
    # the per-pair loop exactly
    config = LEAKAGE_CONFIGS[name]
    for seed in range(3):
        system = realize(ScenarioConfig(cluster_size=7, nt=6, nr=2, streams=2, cooperation_factor=2,
                                        sectors=sectors, seed=seed))
        sol = min_leakage_solve(system, config)
        _assert_identical(_leakage_outputs(sol), reference_min_leakage(system, config))
        assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(sol.trace, sol.trace[1:]))


def test_min_leakage_initial_factors_match_reference():
    system, _ = cellular_problem(5)
    rng = np.random.default_rng(8)
    initial = [[np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
                for _ in sset] for sset in system.serving_sets]
    config = LEAKAGE_CONFIGS["long"]
    _assert_identical(_leakage_outputs(min_leakage_solve(system, config, initial=initial)),
                      reference_min_leakage(system, config, initial=initial))


@pytest.mark.parametrize("name", sorted(LEAKAGE_CONFIGS))
def test_min_leakage_padded_pairs_match_reference(name, mixed_systems):
    # users that differ in serving-set size and stream count run on the
    # padded stack and agree with the per-pair loop to rounding
    config = LEAKAGE_CONFIGS[name]
    for system in mixed_systems.values():
        sol = min_leakage_solve(system, config)
        got = _leakage_outputs(sol)
        expected = reference_min_leakage(system, config)
        assert got[1:3] == expected[1:3]
        assert np.allclose(got[0], expected[0], rtol=1e-12, atol=1e-12)
        for got_field, want_field in zip(got[3:], expected[3:]):
            pairs = list(zip(_flat(got_field), _flat(want_field)))
            assert all(g.shape == w.shape for g, w in pairs)
            assert max(float(np.max(np.abs(g - w))) for g, w in pairs) <= 1e-12
        assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(sol.trace, sol.trace[1:]))
        assert np.allclose(sol.diagnostics["usage"], system.bs_power, rtol=1e-12)


def test_min_leakage_rejects_more_streams_than_antennas(mixed_systems):
    # 3 streams from 2-antenna BSs: no pair factor has 3 orthonormal columns
    from dataclasses import replace

    from netmimo.errors import ContractViolationError
    system = replace(mixed_systems["serving_sets"], streams=(1, 2, 3, 2))
    with pytest.raises(ContractViolationError):
        min_leakage_solve(system, AlgorithmConfig(algorithm="min_leakage"))


# ---------------------------------------------------------------------------
# rate-maximizing outer loop
# ---------------------------------------------------------------------------

def test_srm_single_user_matches_grid_oracle():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    problem = single_pair_problem(h, budget=2.0)
    sol = srm_outer_loop(problem, AlgorithmConfig(algorithm="dmmse", objective="srm"),
                         inner="dmmse")
    rate = sum_rate(problem, sol.precoders)
    gains = np.sort(np.linalg.eigvalsh(h.conj().T @ h).real)[::-1][:2]
    best = 0.0
    for p1 in np.linspace(0.0, 2.0, 8001):
        best = max(best, np.log2(1 + p1 * gains[0]) + np.log2(1 + (2.0 - p1) * gains[1]))
    assert rate >= best * 0.99
    assert rate <= best * 1.0001


def test_srm_zero_channels():
    problem = zero_problem()
    sol = srm_outer_loop(problem, AlgorithmConfig(algorithm="dmmse", objective="srm",
                                                  max_outer=60), inner="dmmse")
    assert sum_rate(problem, sol.precoders) == pytest.approx(0.0, abs=1e-12)


def test_srm_initial_rotation_invariance():
    _, problem = cellular_problem(4)
    cfg = AlgorithmConfig(algorithm="dmmse", objective="srm",
                          initialization="random_orthonormal", init_seed=1)
    init = initialize_precoders(problem, cfg)
    rng = np.random.default_rng(9)
    rates = []
    for trial in range(4):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rotated = [b @ q for b in init]
        sol = srm_outer_loop(problem, cfg, inner="dmmse", initial=rotated)
        rates.append(sum_rate(problem, sol.precoders))
    assert max(rates) - min(rates) <= 1e-6 * max(1.0, max(rates))


def test_solver_determinism():
    _, problem = cellular_problem(5)
    cfg = AlgorithmConfig(algorithm="dmmse", objective="srm",
                          initialization="random_orthonormal", init_seed=7)
    a = srm_outer_loop(problem, cfg, inner="dmmse")
    b = srm_outer_loop(problem, cfg, inner="dmmse")
    assert a.trace == b.trace
    assert all(np.array_equal(x, y) for x, y in zip(a.precoders, b.precoders))


def criterion_8_over_budget_problem():
    # trial 15 at kappa=2 of the acceptance cooperation sweep: dmmse and
    # pwf both stop unconverged with a BS over its budget (2.6% and 13.4%)
    from netmimo.experiment import trial_rng

    rng = trial_rng(20260809 + 8, 0, 15)
    scenario = ScenarioConfig(cluster_size=5, users_per_cell=2, nt=4, nr=2, streams=2,
                              cooperation_factor=2, boundary_snr_db=20.0)
    return build_interference_problem(realize(scenario, rng))


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", ["dmmse", "pwf"])
def test_srm_unconverged_stop_is_scaled_into_every_budget(algorithm, monkeypatch):
    from netmimo import algorithms

    calls = []

    def spy(problem, precoders):
        scaled, usage = fit_to_budgets(problem, precoders)
        calls.append(([b.copy() for b in precoders], scaled))
        return scaled, usage

    monkeypatch.setattr(algorithms, "fit_to_budgets", spy)
    problem = criterion_8_over_budget_problem()
    solver = dmmse_solve if algorithm == "dmmse" else pwf_solve
    cfg = AlgorithmConfig(algorithm=algorithm, objective="srm", max_outer=600, inner_tol=1e-5)
    sol = solver(problem, cfg)

    usage = constraint_usage(problem, sol.precoders)
    assert np.all(usage <= problem.budgets * (1.0 + cfg.constraint_tol))
    assert not sol.converged
    assert sol.diagnostics["unscaled_max_violation"] > 0.01
    assert sol.diagnostics["max_violation"] <= cfg.constraint_tol
    assert np.allclose(sol.diagnostics["usage"], usage, rtol=1e-12)
    for k, a in enumerate(sol.equalizers):
        assert np.allclose(a, mmse_equalizer(problem, sol.precoders, k), rtol=1e-10, atol=1e-12)

    assert len(calls) == 1
    unscaled, scaled = calls[0]
    assert all(np.array_equal(b, s) for b, s in zip(sol.precoders, scaled))
    unscaled_usage = constraint_usage(problem, unscaled)
    within = unscaled_usage <= problem.budgets
    assert np.any(within) and not np.all(within)
    for k in range(problem.num_users):
        for m in np.flatnonzero(within):
            rows = np.diag(problem.constraints[k][m]) != 0
            assert np.array_equal(scaled[k][rows], unscaled[k][rows])
    assert np.allclose(usage[~within], problem.budgets[~within], rtol=1e-12)


def test_fit_to_budgets_common_factor_for_overlapping_constraints():
    # a sum-power and a first-antenna constraint weigh the same rows, so no
    # row scaling can touch one constraint alone
    rng = np.random.default_rng(10)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    first = np.diag([1.0, 0.0, 0.0]).astype(complex)
    problem = InterferenceProblem.from_blocks(
        channels=((h,),), constraints=((np.eye(3, dtype=complex), first),),
        budgets=[1.0, 0.2], streams=[2], mse_weights=(np.eye(2),),
    )
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b *= 2.0 / np.linalg.norm(b)
    before = constraint_usage(problem, [b])
    scaled, usage = fit_to_budgets(problem, [b])
    factor = np.sqrt(np.min(problem.budgets / before))
    assert np.allclose(scaled[0], factor * b)
    assert np.allclose(usage, constraint_usage(problem, scaled))
    assert np.all(usage <= problem.budgets * (1.0 + 1e-12))
    assert np.any(np.isclose(usage, problem.budgets, rtol=1e-12))


def test_fit_to_budgets_leaves_feasible_precoders_alone():
    _, problem = cellular_problem(6)
    precoders = initialize_precoders(problem, AlgorithmConfig())
    scaled, usage = fit_to_budgets(problem, precoders)
    assert all(np.array_equal(b, s) for b, s in zip(precoders, scaled))
    assert np.array_equal(usage, constraint_usage(problem, precoders))


# ---------------------------------------------------------------------------
# block-mask pricing and batched reverse-link sums against the dense loops
# ---------------------------------------------------------------------------

def dense_priced_weights(problem, lam):
    """sum_m lam_m Phi_{k,m} over the dense constraint stack, from 0 in
    constraint order."""
    priced = 0
    for m in range(problem.num_constraints):
        priced = priced + lam[m] * problem.constraints[:, m]
    return priced


def dense_emmseia_solve_at(problem, grams, rhs, mu):
    """The emmseia linear solves with the dense multiplier sum, zero
    multipliers skipped, least squares for a singular user."""
    systems = grams
    for m in range(problem.num_constraints):
        if mu[m] != 0.0:
            systems = systems + mu[m] * problem.constraints[:, m]
    try:
        return np.linalg.solve(systems, rhs)
    except np.linalg.LinAlgError:
        pass
    precoders = np.empty_like(rhs)
    for k in range(problem.num_users):
        try:
            precoders[k] = np.linalg.solve(systems[k], rhs[k])
        except np.linalg.LinAlgError:
            precoders[k] = np.linalg.pinv(systems[k], hermitian=True) @ rhs[k]
    return precoders


def loop_reverse_link_sums(base, channels, mats):
    """base + sum_l H_{l,k}^H X_l H_{l,k}, one transmitter l at a time."""
    out = np.array(np.broadcast_to(base, channels.shape[1:2] + channels.shape[-1:] * 2), dtype=complex)
    for l, x in enumerate(mats):
        out += channels[l].conj().swapaxes(-1, -2) @ x @ channels[l]
    return out


def pricing_problems(mixed_problems):
    return [cellular_problem(seed)[1] for seed in range(3)] + \
        [cellular_problem(4, cluster_size=5, users_per_cell=2, cooperation_factor=3)[1]] + \
        list(mixed_problems.values())


def random_multipliers(rng, m):
    """Positive multipliers spread over decades, about a third of them 0."""
    lam = 10.0 ** rng.uniform(-9, 3, m)
    lam[rng.random(m) < 0.35] = 0.0
    return lam


def test_block_mask_pricing_matches_the_dense_sums(mixed_problems):
    from netmimo.algorithms import _emmseia_factors, _emmseia_solve_at, _priced_weights
    from netmimo.model import interference_covariances, mmse_equalizers, reverse_link_sums

    rng = np.random.default_rng(41)
    for problem in pricing_problems(mixed_problems):
        supports = problem.constraint_supports
        assert supports is not None
        assert np.array_equal(supports != 0, np.diagonal(problem.constraints, axis1=-2, axis2=-1) != 0)
        precoders = problem.precoders(initialize_precoders(
            problem, AlgorithmConfig(initialization="random_orthonormal", init_seed=3)))
        equalizers = mmse_equalizers(problem, precoders, interference_covariances(problem, precoders))
        grams, rhs = _emmseia_factors(problem, equalizers, problem.mse_weights)
        for _ in range(20):
            lam = random_multipliers(rng, problem.num_constraints)
            assert np.array_equal(_priced_weights(problem, lam), dense_priced_weights(problem, lam))
            assert np.array_equal(_emmseia_solve_at(problem, grams, rhs, lam),
                                  dense_emmseia_solve_at(problem, grams, rhs, lam))
        k, mr = problem.num_users, problem.channels.shape[-2]
        x = rng.standard_normal((k, mr, mr)) + 1j * rng.standard_normal((k, mr, mr))
        base = dense_priced_weights(problem, random_multipliers(rng, problem.num_constraints))
        for channels, adjoints in ((problem.channels, problem.channels_h), (problem.cross, problem.cross_h)):
            for b in (0.0, base):
                assert np.array_equal(reverse_link_sums(b, channels, adjoints, x),
                                      loop_reverse_link_sums(b, channels, x))


def test_general_constraint_weights_take_the_dense_path():
    from netmimo.algorithms import _emmseia_solve_at, _priced_weights

    rng = np.random.default_rng(42)
    h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    factors = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    first = np.diag([1.0, 0.0, 0.0]).astype(complex)
    weights = {
        "non_diagonal": tuple(f @ f.conj().T for f in factors),
        "overlapping": (np.eye(3, dtype=complex), first),
        "complex_diagonal": (np.diag([1.0, 2.0 + 1j, 0.0]), np.diag([0.0, 0.0, 1.0]).astype(complex)),
    }
    for constraints in weights.values():
        problem = InterferenceProblem.from_blocks(
            channels=((h,),), constraints=(constraints,), budgets=[1.0, 0.5], streams=[2],
            mse_weights=(np.eye(2),))
        assert problem.constraint_supports is None
        grams = np.eye(3, dtype=complex)[None] + 0.5
        rhs = rng.standard_normal((1, 3, 2)) + 1j * rng.standard_normal((1, 3, 2))
        for lam in ([0.3, 2.0], [0.0, 1.5]):
            lam = np.asarray(lam)
            assert np.array_equal(_priced_weights(problem, lam), dense_priced_weights(problem, lam))
            assert np.array_equal(_emmseia_solve_at(problem, grams, rhs, lam),
                                  dense_emmseia_solve_at(problem, grams, rhs, lam))


def test_dmmse_pass_makes_two_eigendecompositions(monkeypatch):
    # one eigh whitens the pricing matrices, one finds the top eigenvectors;
    # nothing else in a dmmse solve decomposes
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    _, problem = cellular_problem(0)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    sol = dmmse_solve(problem, AlgorithmConfig(algorithm="dmmse"))
    assert sol.iterations > 10
    assert len(calls) == 2 * sol.iterations


# Sum rate and converged flag of each solve on the mixed-dimension problems
# (default AlgorithmConfig), recorded from the per-user solver loops that the
# padded array form replaced.
PER_USER_RESULTS = {
    ("serving_sets", "dmmse", "wsmmse"): (10.717402075965998, True),
    ("serving_sets", "emmseia", "wsmmse"): (10.716029917566807, True),
    ("serving_sets", "dmmse", "srm"): (12.18010712637931, True),
    ("serving_sets", "emmseia", "srm"): (12.181082065143816, True),
    ("serving_sets", "pwf", "srm"): (12.180116917402984, True),
    ("sizes", "dmmse", "wsmmse"): (8.035104029928837, True),
    ("sizes", "emmseia", "wsmmse"): (8.039182567453398, True),
    ("sizes", "dmmse", "srm"): (9.215071612263147, True),
    ("sizes", "emmseia", "srm"): (9.216439962515707, True),
    ("sizes", "pwf", "srm"): (9.215122151352023, True),
}


@pytest.mark.parametrize("algorithm, objective", [("dmmse", "wsmmse"), ("emmseia", "wsmmse"),
                                                  ("dmmse", "srm"), ("emmseia", "srm"),
                                                  ("pwf", "srm")])
def test_array_and_per_user_paths_give_identical_solutions(algorithm, objective, mixed_problems):
    # users that differ in size run on the padded array form and reach the
    # rate and convergence the per-user loops reached
    solver = {"dmmse": dmmse_solve, "emmseia": emmseia_solve, "pwf": pwf_solve}[algorithm]
    cfg = AlgorithmConfig(algorithm=algorithm, objective=objective)
    for name, problem in mixed_problems.items():
        sol = solver(problem, cfg)
        assert [b.shape for b in sol.precoders] == list(zip(problem.tx_dims, problem.streams))
        assert [a.shape for a in sol.equalizers] == list(zip(problem.rx_dims, problem.streams))
        usage = constraint_usage(problem, sol.precoders)
        assert np.all(usage <= problem.budgets * (1.0 + cfg.constraint_tol))
        rate, converged = PER_USER_RESULTS[(name, algorithm, objective)]
        assert sol.converged == converged
        assert sum_rate(problem, sol.precoders) == pytest.approx(rate, rel=1e-6)


def test_solver_steps_leave_the_padding_alone(mixed_problems):
    from netmimo.algorithms import (_dmmse_precoder_step, _dual_covariances, _mse_offdiag,
                                    _pwf_forward, _stream_weights)
    from netmimo.model import cut_padding, interference_covariances, mmse_equalizers, srm_weight_update

    def padding(stack, rows, cols):
        """The entries of ``stack`` outside each user's leading block."""
        out = np.array(stack)
        for mat, r, c in zip(out, rows, cols):
            mat[:r, :c] = 0.0
        return out

    for problem in mixed_problems.values():
        tx, d = problem.tx_dims, problem.streams
        cut = initialize_precoders(problem, AlgorithmConfig(initialization="random_orthonormal",
                                                            init_seed=2))
        precoders = problem.precoders(cut)
        omegas = interference_covariances(problem, precoders)
        equalizers = mmse_equalizers(problem, precoders, omegas)
        lam = np.ones(problem.num_constraints)

        # dmmse: srm's E^{-1} is 1 on the padded streams, their weight is 0
        weights = _stream_weights(problem, srm_weight_update(problem, precoders, omegas))
        for k, w in enumerate(weights):
            inverse = np.linalg.inv(mse_matrix_mmse(problem, cut, k))
            assert np.allclose(w[:d[k]], np.diag(inverse).real, rtol=1e-12, atol=0.0)
            assert not np.any(w[d[k]:])
        step = _dmmse_precoder_step(problem, precoders, equalizers, weights, lam, omegas)
        assert not np.any(padding(step, tx, d))
        # the diagonality test measures each user's own block; users without
        # padded streams are switched off, so a padded one sets the maximum
        padded_only = [b if streams < max(d) else 0 * b for b, streams in zip(cut, d)]
        worst = max(offdiag_mass(mse_matrix_mmse(problem, padded_only, k))
                    for k in range(problem.num_users))
        offdiag = _mse_offdiag(problem, problem.precoders(padded_only), None)
        assert offdiag == pytest.approx(worst, rel=1e-12, abs=1e-300)

        mu = np.zeros(problem.num_constraints)
        mu[0] = 0.3  # one multiplier at zero
        update = emmseia_precoder_update(problem, equalizers, problem.mse_weights, mu)
        assert not np.any(padding(update, tx, d))

        # pwf: no power on padded transmit coordinates or padded streams
        covariances = precoders @ precoders.conj().swapaxes(-1, -2)
        duals = _dual_covariances(problem, covariances, 1.0)
        forward, _ = _pwf_forward(problem, covariances, duals, lam)
        assert not np.any(padding(forward, tx, tx))
        for c, streams in zip(cut_padding(forward, tx, tx), d):
            assert np.linalg.matrix_rank(c, tol=1e-9 * np.linalg.norm(c)) <= streams


@pytest.mark.parametrize("algorithm, max_outer, max_inner", [("dmmse", 5, 2), ("pwf", 12, 3)])
def test_iterations_obey_the_documented_bound(algorithm, max_outer, max_inner):
    # max_outer caps the pricing passes; each of at most MAX_POLISH_ROUNDS
    # polish runs adds up to max_inner more
    from netmimo.algorithms import MAX_POLISH_ROUNDS

    _, problem = cellular_problem(0)
    solver = dmmse_solve if algorithm == "dmmse" else pwf_solve
    sol = solver(problem, AlgorithmConfig(algorithm=algorithm, objective="srm",
                                          max_outer=max_outer, max_inner=max_inner))
    assert max_outer < sol.iterations <= max_outer + MAX_POLISH_ROUNDS * max_inner


# ---------------------------------------------------------------------------
# golden digests of the dual-loop solvers
# ---------------------------------------------------------------------------

def _digest(*parts) -> str:
    """SHA-256 over the bytes of arrays and the text of everything else."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, (list, tuple)):
            sha.update(_digest(*part).encode())
        elif isinstance(part, np.ndarray):
            sha.update(str((part.dtype, part.shape)).encode())
            sha.update(np.ascontiguousarray(part).tobytes())
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


# links whose stream weights are not sorted, or whose constraints are not
# diagonal, by digest name
OFF_AXIS_LINKS = {
    **{f"link_w{i}": (antenna_link, (0.5, 2.0)) for i in range(4)},
    **{f"dense{i}": (dense_link, (1.0, 1.0)) for i in range(4)},
    **{f"dense_w{i}": (dense_link, (0.5, 2.0)) for i in range(4)},
}


# Recorded with numpy 2.4's bundled OpenBLAS on x86-64; another BLAS may round
# differently and needs its own recording.
GOLDEN_DIGESTS = {
    "cell0/dmmse/wsmmse":
        "34f107d7edf4064d4b2d71ca4f0ef3be5d82ac4faf08626d118726366506574b",
    "cell0/dmmse/srm":
        "6643e0c3c4af02eeda8d46db81cfc774fd928c7df91403348f88c60ab3de7a2d",
    "cell0/emmseia/wsmmse":
        "f8567843b6083198338ad691328d37eda5c0b19d67f8b5396ec853fa4c479328",
    "cell0/emmseia/srm":
        "78aee1af3a453e63bb4feaeb0a0616dbd85ae327299dbe3533df33d908b4a43d",
    "cell0/pwf/srm":
        "55cc25338b1dbbd3468a8390c4d5130e335749807461887c32d5fc19d6ecc637",
    "cell1/dmmse/wsmmse":
        "4ca9879127182dece5ee43cf618f68089b6856dc83809ce2d8846d9683552b26",
    "cell1/dmmse/srm":
        "a2f67e7294362d320c56d9dca7ecc1e1086d5bdf3773048ef681661ee826707c",
    "cell1/emmseia/wsmmse":
        "e3ef0a3a1399ac0772d1d2c4b6ba610fded287aa2a3deb6126be3d57e4a5865d",
    "cell1/emmseia/srm":
        "cb4f9404fad5df5052c7a58cd70fba5248133d395b09c75338d46ac49056a745",
    "cell1/pwf/srm":
        "e4ebc1a7ef0b841e6e3357e23a840615b688745bd9758e22508add4feb2d75d0",
    "serving_sets/dmmse/wsmmse":
        "f202538b8f4dd91966c5c81dadfd11228923a67c44d572936673dceccd9dfaea",
    "serving_sets/dmmse/srm":
        "84a711f6b7b68bce0db84737bfbb283f7638c9109a0772549f92a54ce632c201",
    "serving_sets/emmseia/wsmmse":
        "3e209a14cb8ab7b55ef60e5ef0718d2efe7ca1d188fc75f52babf5181a5ed499",
    "serving_sets/emmseia/srm":
        "6de36243c76f2a60e8092cec8a57f55a53d1a8895368c43fb2892bc316ff4767",
    "serving_sets/pwf/srm":
        "67928f943287b1b44dcc0b4f68a161f58e290a891fa2335f0882efe1bf7f18a9",
    "sizes/dmmse/wsmmse":
        "4753789a1d6eaa350e1f61f926125126f5c8a95a37d845340a677194149a4616",
    "sizes/dmmse/srm":
        "05ac04c9618c6dd6bd9eafd441b40f5e07fed457996b510d0e54d7bf6be4145f",
    "sizes/emmseia/wsmmse":
        "8b4ff9432ee251bf62d803787e71aa16e4f3e3828e11d8cda837545350aaa452",
    "sizes/emmseia/srm":
        "f3b0dface8bf188f85595398ded7e633bc3cad7b058a537c0e4d96cdf31ffa69",
    "sizes/pwf/srm":
        "77a2c59efee6b16f7f01b1bc8a56e17827236982b17150ae4b664cb75fd5bdae",
    "link0":
        "506753a19552d1f5882242c9a7fde463551059322804c9fe96fb082ff149820e",
    "link1":
        "53d8144a10d0c4d10ea3cf9a75d977d67b16fd92959d08276c523a437332f441",
    "link2":
        "3416bafdc49dd11bbf9cadf5eb11cf6dd19d4f93be4d829d7dd56591d6e41c65",
    "link3":
        "f01f2769ab18437f0cfee866f83e7291fe92b6c214da1ed5f91048cfc3d14b2f",
    "link4":
        "c627c97c3a9c302af84dc86dc17ebd09c5cfb9b8ded0f124599217073d295ea6",
    "link5":
        "b31dbe6239bae020e034656a9c3b205cbb271eb867dceca1d2fb2641d592ce6f",
    "link6":
        "4c587d81e87426f6de1470c137ac805df685f5415c8a557c11024b0d17475905",
    "link7":
        "cfc3246e2034fd0d4ce07526281e3d82f70b4eeabcf56833fdda25d8f574471a",
    "link8":
        "9163a045ca923d9e84de7126c7f01680c722a92191814c4dbdda6a91d3232db8",
    "link9":
        "c281af1318646a4bb90a9580c674ee58cd56574341e4e2d4351ada4d7a8c9602",
    "link10":
        "85cf4f4c82c66f82c3d4655b37a684a933eb71b8cc531d90f6393247f536d0af",
    "link11":
        "15e6ab1f3ea86e9b7a9f8823fba59294da345ba0e3bc3a037aca01472834dd5c",
    "link12":
        "a50c13c8b2f603981b477be6707ddfe6aee10a1af1c3b55bbbb9bb0310bd9cff",
    "link13":
        "e27405456f62c093399d31d61d622c61ba4000938987129b047603a6ded25c7b",
    "link14":
        "e0587ecd584c55338e9964820228cf507846cc04182a17985789409a5f922624",
    "link15":
        "a97bd56a5b64195c8c4a183356bbd8eab85e6daba402c5bb8458de381bf30e6d",
    "link16":
        "8092b4d5263da0eb1aed300cec60a064079f1509778eec721a498c2ce4faeeb1",
    "link17":
        "6fe6adafb060a6ef6860bff0dd8790284655278a2e56c960982f4b63ac4cf9d6",
    "link18":
        "70e5f965f46b20bcffc0187ec4eca2baaeb062d9c60450400b313aca02ec0903",
    "link19":
        "f5dc57733ad8bd71190d94579000b544f89d80fb1f747700249c549a5787c36f",
    "link_w0":
        "6e28966a8df1819761ba8ffb04640f826d64a0f00a7c7cb79348f90db1f1a46a",
    "link_w1":
        "53f11a63cba02687176af6c17d9de24312d4522f134ce729d313e52d204afb5d",
    "link_w2":
        "8f6588f7bcc61e0321b9b0610edcf8ff5223172db59e1580d78b8e548eac5ef7",
    "link_w3":
        "e52f151694d27fcff0029276a0d8a52528bcb68d56edbf4ba4ff927cb5e88e03",
    "dense0":
        "19d9996d43649f339a6f1f79e2613a70d86f272e05535fd8468fe8b420873d5d",
    "dense1":
        "57147d55521bb711a8e6e170b6c540010b15e64ca676b355fcae3dd0830f73a2",
    "dense2":
        "d7f07f8ab025c48bcb6868785cfcdbca093fb2a73d85d65648c9a16ecd9b0257",
    "dense3":
        "c8a2ade10d54125bc4d68acade07d70a42e387c2bad3601286ecea6b7c41fe95",
    "dense_w0":
        "bc2095b7c0952ba4cbd0fbc1d12e7a883d190d16b6162ce2c685e929cc243c8e",
    "dense_w1":
        "5597e65c66b2c60c27705adc8a54efd787cb2fba2c7417ef1965566f38d027cd",
    "dense_w2":
        "c204f75236f1534053a944a951392b16f6b293d27f965f5930913197b8a314cd",
    "dense_w3":
        "ff07755ef343e3e194c8e213fbcb95e3b2e93de444bc8de2cbe42df4bb275351",
}


def golden_cases(mixed_problems):
    """(name, digest) of every solve the golden digests cover."""
    problems = {"cell0": cellular_problem(0)[1], "cell1": cellular_problem(1)[1], **mixed_problems}
    runs = [("dmmse", "wsmmse", dmmse_solve), ("dmmse", "srm", dmmse_solve),
            ("emmseia", "wsmmse", emmseia_solve), ("emmseia", "srm", emmseia_solve),
            ("pwf", "srm", pwf_solve)]
    for pname, problem in problems.items():
        for algorithm, objective, solver in runs:
            sol = solver(problem, AlgorithmConfig(algorithm=algorithm, objective=objective, max_outer=300))
            yield (f"{pname}/{algorithm}/{objective}",
                   _digest(sol.precoders, np.asarray(sol.trace), sol.iterations, sol.converged,
                           sol.multipliers))
    rng = np.random.default_rng(8)
    for i in range(20):
        result = solve_multi_constraint(antenna_link(rng))
        yield (f"link{i}", _digest(result.precoder, np.asarray(result.wsmse_trace), result.iterations,
                                   result.converged, result.multipliers))
    rng = np.random.default_rng(9)
    for name, (make, weights) in OFF_AXIS_LINKS.items():
        result = solve_multi_constraint(make(rng, weights))
        yield (name, _digest(result.precoder, np.asarray(result.wsmse_trace), result.iterations,
                             result.converged, result.multipliers))


def test_solvers_match_golden_digest(mixed_problems):
    # the dual-loop solvers reproduce the recorded precoders, traces,
    # iteration counts, stop flags and multipliers bit for bit
    got = dict(golden_cases(mixed_problems))
    assert got == GOLDEN_DIGESTS
