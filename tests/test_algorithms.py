"""Multiuser algorithm tests: structural identities, descent, feasibility,
and degenerate cases for all four solver families."""

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


def cellular_problem(seed, **kwargs):
    defaults = dict(cluster_size=3, users_per_cell=1, nt=4, nr=2, streams=2,
                    cooperation_factor=2, boundary_snr_db=20.0, seed=seed)
    defaults.update(kwargs)
    system = realize(ScenarioConfig(**defaults))
    return system, build_interference_problem(system)


def single_pair_problem(h, budget=1.0):
    h = np.asarray(h, dtype=complex)
    mr, mt = h.shape
    return InterferenceProblem(
        channels=((h,),),
        constraints=((np.eye(mt, dtype=complex),),),
        budgets=[budget], streams=[min(mr, mt)],
        mse_weights=(np.eye(min(mr, mt)),),
    )


def zero_problem():
    z = np.zeros((2, 3), dtype=complex)
    eye = np.eye(3, dtype=complex)
    zero = np.zeros((3, 3), dtype=complex)
    return InterferenceProblem(
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
    assert np.linalg.norm(stepped[0] @ stepped[0].conj().T - direct @ direct.conj().T) <= 1e-8


def test_dmmse_symmetric_instance():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    g = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    eye, zero = np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex)
    problem = InterferenceProblem(
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
    bad = InterferenceProblem(
        channels=problem.channels, constraints=problem.constraints,
        budgets=problem.budgets, streams=problem.streams,
        mse_weights=(w,) + tuple(problem.mse_weights[1:]),
    )
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
    problem = InterferenceProblem(
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
        precoders = problem.arrays.precoders(cut)
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
        offdiag = _mse_offdiag(problem, problem.arrays.precoders(padded_only), None)
        assert offdiag == pytest.approx(worst, rel=1e-12, abs=1e-300)

        mu = np.zeros(problem.num_constraints)
        mu[0] = 0.3  # one multiplier at zero
        update = emmseia_precoder_update(problem, equalizers, problem.arrays.mse_weights, mu)
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
