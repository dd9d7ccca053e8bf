"""Single-user solver tests: closed form, power-priced minimizer, dual
subgradient method, and the stationarity residual."""

from dataclasses import replace

import numpy as np
import pytest

from netmimo import (
    ContractViolationError,
    NumericalFailureError,
    SingleUserProblem,
    SingularMatrixError,
    kkt_residual,
    lagrangian_minimizer,
    psd_inv_sqrt,
    solve_multi_constraint,
    solve_single_constraint,
)
from netmimo.linalg import disjoint_diagonals, weight_usage
from netmimo.single_user import (
    GAIN_RTOL,
    LAMBDA_FLOOR,
    MAX_POLISH_ROUNDS,
    STALL_WINDOW,
    budget_residuals,
    dual_loop,
    precoder_wsmse,
    priced_minimizer,
    receive_factors,
    stream_order,
)

from conftest import antenna_link, count_decompositions, dense_link


def make_problem(h, omega=None, phis=None, budgets=(1.0,), weights=None, d=None):
    h = np.asarray(h, dtype=complex)
    mr, mt = h.shape
    d = d if d is not None else min(mr, mt)
    return SingleUserProblem(
        channel=h,
        noise_cov=np.eye(mr) if omega is None else omega,
        constraints=tuple(phis) if phis is not None else (np.eye(mt, dtype=complex),),
        budgets=np.asarray(budgets, dtype=float),
        weights=np.ones(d) if weights is None else np.asarray(weights, dtype=float),
        streams=d,
    )


def random_instance(rng, mt=4, mr=2, d=2, budget=2.0):
    h = rng.standard_normal((mr, mt)) + 1j * rng.standard_normal((mr, mt))
    return make_problem(h, budgets=(budget,), d=d)


def grid_oracle_wsmse(problem, points=4000):
    """Independent optimum estimate: exhaustive search over budget splits on
    the whitened-channel eigendirections (d = 2 only)."""
    s = np.linalg.inv(np.asarray(problem.constraints[0]))  # identity in tests
    r = problem.quadratic_form()
    gains = np.sort(np.linalg.eigvalsh(r).real)[::-1][:2]
    budget = float(problem.budgets[0])
    w = problem.weights
    best = np.inf
    for p1 in np.linspace(0.0, budget, points + 1):
        p = np.array([p1, budget - p1])
        best = min(best, float(np.sum(w / (1.0 + p * gains))))
    return best


def test_single_constraint_identity_channel():
    sol = solve_single_constraint(make_problem(np.eye(2), budgets=(2.0,)))
    assert sol.wsmse == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(sol.powers, [1.0, 1.0], atol=1e-8)
    assert abs(sol.water_level - 0.25) <= 1e-6


def test_single_constraint_diagonal_channel():
    sol = solve_single_constraint(make_problem(np.diag([2.0, 1.0]), budgets=(1.0,)))
    assert np.allclose(sol.powers, [0.5, 0.5], atol=1e-8)
    assert sol.wsmse == pytest.approx(1.0, abs=1e-9)  # 1/3 + 2/3


def test_single_constraint_zero_channel():
    sol = solve_single_constraint(make_problem(np.zeros((2, 3)), budgets=(1.0,), d=2))
    assert np.allclose(sol.precoder, 0.0)
    assert sol.wsmse == pytest.approx(2.0)


def test_single_constraint_budget_met():
    rng = np.random.default_rng(0)
    for _ in range(10):
        problem = random_instance(rng)
        sol = solve_single_constraint(problem)
        usage = weight_usage(problem.constraints, problem.constraint_supports, sol.precoder)
        assert abs(usage[0] - problem.budgets[0]) <= 1e-8


def test_single_constraint_beats_random_feasible_precoders():
    rng = np.random.default_rng(1)
    problem = random_instance(rng)
    sol = solve_single_constraint(problem)
    budget = float(problem.budgets[0])
    for _ in range(1000):
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        b *= np.sqrt(budget / np.sum(np.abs(b) ** 2))
        assert precoder_wsmse(problem, b) >= sol.wsmse - 1e-9


def test_single_constraint_matches_grid_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        problem = random_instance(rng)
        sol = solve_single_constraint(problem)
        oracle = grid_oracle_wsmse(problem)
        assert sol.wsmse <= oracle + 1e-9
        assert abs(sol.wsmse - oracle) <= 1e-3 * oracle


def test_single_constraint_diagonalizes_error_covariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        problem = random_instance(rng)
        sol = solve_single_constraint(problem)
        r = problem.quadratic_form()
        e = np.linalg.inv(np.eye(2) + sol.precoder.conj().T @ r @ sol.precoder)
        off = e - np.diag(np.diag(e))
        assert np.linalg.norm(off) <= 1e-8 * np.linalg.norm(e)


def test_single_constraint_requires_one_constraint():
    problem = make_problem(np.eye(2), phis=(np.eye(2), np.eye(2)), budgets=(1.0, 1.0))
    with pytest.raises(ContractViolationError):
        solve_single_constraint(problem)


def test_single_constraint_makes_one_whitened_svd(monkeypatch):
    # the noise covariance is Cholesky-factored; a diagonal constraint is
    # whitened as a row scaling and the whitened channel factor decomposed
    # by one SVD, while a general one is solved with (one LU solve) and the
    # 2x2 C^H Phi^{-1} C meets eigh
    rng = np.random.default_rng(4)
    problem = random_instance(rng)
    factor = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dense = replace(problem, constraints=(factor @ factor.conj().T + np.eye(4),))
    calls = count_decompositions(monkeypatch, names=("eigh", "svd", "cholesky", "solve"))
    solve_single_constraint(problem)
    assert calls == [("cholesky", (1, 2, 2)), ("svd", (1, 4, 2))]
    del calls[:]
    solve_single_constraint(dense)
    assert calls == [("cholesky", (1, 2, 2)), ("solve", (1, 4, 4)), ("eigh", (1, 2, 2))]


def test_noise_covariance_is_validated_when_the_link_is_built():
    # the noise whitening reads only the lower triangle, so a covariance
    # that is not Hermitian, or not positive definite (a NaN spectrum
    # included), is rejected when the link is built; one Hermitian within
    # the tolerance is stored symmetrized
    link = antenna_link(np.random.default_rng(42))
    with pytest.raises(ContractViolationError, match="not Hermitian"):
        replace(link, noise_cov=np.array([[1.0, 0.5], [0.0, 1.0]]))
    for indefinite in (np.diag([1.0, 0.0]), np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
                       np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(ContractViolationError, match="positive definite"):
            replace(link, noise_cov=indefinite)
    nearly = np.array([[2.0, 1e-12j], [0.0, 1.0]])
    stored = replace(link, noise_cov=nearly).noise_cov
    assert np.array_equal(stored, stored.conj().T) and stored[1, 0] == -0.5e-12j


def test_lagrangian_minimizer_unit_example():
    problem = make_problem(np.eye(1), weights=[4.0], d=1)
    b = lagrangian_minimizer(problem, np.eye(1, dtype=complex))
    assert np.sum(np.abs(b) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_lagrangian_minimizer_clamped_example():
    problem = make_problem(np.eye(1), weights=[4.0], d=1)
    b = lagrangian_minimizer(problem, 4.0 * np.eye(1, dtype=complex))
    assert np.allclose(b, 0.0)


def test_lagrangian_minimizer_local_probe():
    rng = np.random.default_rng(4)
    problem = random_instance(rng)
    phi = np.eye(4, dtype=complex) * 0.8
    b = lagrangian_minimizer(problem, phi)
    base = precoder_wsmse(problem, b) + float(np.trace(phi @ b @ b.conj().T).real)
    for _ in range(100):
        delta = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        cand = b + delta
        value = precoder_wsmse(problem, cand) + float(np.trace(phi @ cand @ cand.conj().T).real)
        assert value >= base - 1e-12


def whitened_minimizer(t, c, weights):
    """The unit-level priced minimizer with the whitening factor ``t`` given:
    t U diag(sqrt p), U the top-d eigenvectors of t^H C C^H t."""
    d = weights.size
    gains, basis = np.linalg.eigh(t.conj().T @ c @ c.conj().T @ t)
    gains, basis = gains[::-1][:d], basis[:, ::-1][:, :d]
    return t @ (basis * np.sqrt(np.maximum(np.sqrt(weights / gains) - 1.0 / gains, 0.0)))


def test_priced_minimizer_sends_doubtful_pricing_to_the_exact_path():
    # doubtful, that is ill-conditioned, positive definite prices
    # (condition 1 to 1e11) take the one LU step, which gives the
    # psd_inv_sqrt whitening's B B^H within a condition-number multiple of
    # eps; a factor that is not finite raises rather than returning NaN
    # precoders
    rng = np.random.default_rng(37)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    spectra = [1.0 + 0.3 * np.arange(8.0), np.r_[np.ones(7), 1e-6], np.r_[np.ones(7), 1e-11],
               np.logspace(0, -11, 8)]
    f = np.stack([(q * v) @ q.conj().T for v in spectra])
    f = 0.5 * (f + f.conj().swapaxes(-1, -2))
    c = rng.standard_normal((4, 8, 2)) + 1j * rng.standard_normal((4, 8, 2))
    weights = np.ones((4, 2))
    b = priced_minimizer(f, c, weights, None)
    for k, v in enumerate(spectra):
        want = whitened_minimizer(psd_inv_sqrt(f[k]), c[k], weights[k])
        # the columns are unique up to phase: compare B B^H
        bound = 20 * (v.max() / v.min()) * np.finfo(float).eps
        assert np.linalg.norm(b[k] @ b[k].conj().T - want @ want.conj().T) <= bound * np.linalg.norm(want) ** 2, k
    for bad in (np.full((1, 8, 2), np.nan), np.where(np.arange(8)[:, None] == 3, np.inf, c[:1])):
        with pytest.raises(NumericalFailureError, match="not finite"):
            priced_minimizer(f[:1], bad, weights[:1], None)


def test_priced_minimizer_diagonal_prices_match_their_dense_matrices():
    # row-scaling whitening against the Cholesky path on diag(prices), with
    # sorted and unsorted weights, a zero-weight stream and a rank-one
    # channel factor whose second stream is inactive
    rng = np.random.default_rng(38)
    c = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
    c[4] = c[4, :, :1] * np.array([1.0, 0.5j])
    prices = 10.0 ** rng.uniform(-3, 3, (5, 4))
    for weights in ([1.0, 1.0], [2.0, 0.5], [0.5, 2.0], [0.0, 1.0]):
        weights = np.tile(weights, (5, 1))
        order = stream_order(weights)
        b, values = priced_minimizer(prices, c, weights, order, values=True)
        want = priced_minimizer(prices[:, :, None] * np.eye(4, dtype=complex), c, weights, order)
        for k in range(5):
            bbh = b[k] @ b[k].conj().T
            assert np.allclose(bbh, want[k] @ want[k].conj().T, rtol=0, atol=1e-12 * max(1.0, np.linalg.norm(bbh)))
            r = c[k] @ c[k].conj().T
            objective = np.trace(np.diag(weights[k]) @ np.linalg.inv(np.eye(2) + b[k].conj().T @ r @ b[k])).real
            assert values[k] == pytest.approx(objective, rel=1e-12)
        # the rank-one user drives one stream; the other gets a zero column
        assert np.count_nonzero(np.linalg.norm(b[4], axis=0)) == 1


def test_singular_prices_raise_on_both_paths():
    # a coordinate with a zero, negative or negligible price: the diagonal
    # path of the priced minimizer raises, and so does lagrangian_minimizer,
    # the one door of a dense price from outside, on the same matrices; a
    # link whose weights leave a coordinate uncovered, in either format, or
    # whose budget is not positive (NaN included) is rejected when it is
    # built
    rng = np.random.default_rng(39)
    c = rng.standard_normal((1, 4, 2)) + 1j * rng.standard_normal((1, 4, 2))
    link = antenna_link(rng)
    for prices in ([1.0, 2.0, 0.0, 1.0], [1.0, 2.0, -0.5, 1.0], [1.0, 1e-13, 1.0, 1.0]):
        with pytest.raises(SingularMatrixError):
            priced_minimizer(np.array([prices]), c, np.ones((1, 2)), None)
        with pytest.raises(SingularMatrixError, match="positive definite"):
            lagrangian_minimizer(link, np.diag(prices).astype(complex))
    uncovered = link.constraints[:3]
    assert disjoint_diagonals(uncovered) is not None
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rotated = q.conj().T @ uncovered @ q
    assert disjoint_diagonals(rotated) is None
    for constraints in (uncovered, rotated):
        with pytest.raises(ContractViolationError, match="positive definite"):
            replace(link, constraints=constraints, budgets=link.budgets[:3])
    for budget in (0.0, -0.25, np.nan):
        with pytest.raises(ContractViolationError, match="budgets must be positive"):
            replace(link, budgets=np.array([0.25, budget, 0.25, 0.25]))


def test_non_finite_channel_raises_in_both_closed_forms():
    # a NaN in the channel: the receive-dimension step of
    # lagrangian_minimizer raises as solve_single_constraint's SVD does,
    # instead of returning a NaN precoder.  SingleUserProblem rejects such
    # a channel, so the NaN is written into links built without it.
    link = antenna_link(np.random.default_rng(43))
    channel = link.channel.copy()
    channel[1, 2] = np.nan
    bad, single = replace(link), replace(link, constraints=np.eye(4, dtype=complex)[None], budgets=np.ones(1))
    for problem in (bad, single):
        object.__setattr__(problem, "channel", channel)
    with pytest.raises(NumericalFailureError, match="not finite"):
        lagrangian_minimizer(bad, np.eye(4, dtype=complex))
    with pytest.raises(NumericalFailureError):
        solve_single_constraint(single)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imag_inf"])
def test_non_finite_channel_is_rejected(value):
    link = antenna_link(np.random.default_rng(43))
    channel = link.channel.copy()
    channel[1, 2] = value
    with pytest.raises(ContractViolationError, match="channel entries must be finite"):
        replace(link, channel=channel)


def test_constraint_supports_are_found_on_first_use():
    rng = np.random.default_rng(40)
    link = antenna_link(rng)
    assert "constraint_supports" not in vars(link)
    assert np.array_equal(link.constraint_supports, np.eye(4))
    assert "constraint_supports" in vars(link)
    assert dense_link(rng).constraint_supports is None


def test_multi_constraint_single_matches_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(5):
        problem = random_instance(rng)
        ref = solve_single_constraint(problem)
        dual = solve_multi_constraint(problem)
        assert dual.converged
        assert abs(dual.wsmse - ref.wsmse) <= 0.01 * ref.wsmse


def test_multi_constraint_symmetric_blocks():
    phis = (np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
            np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex))
    problem = make_problem(np.eye(4), phis=phis, budgets=(1.0, 1.0), d=4)
    result = solve_multi_constraint(problem)
    assert result.converged
    assert abs(result.multipliers[0] - result.multipliers[1]) <= 1e-6
    usage = weight_usage(problem.constraints, problem.constraint_supports, result.precoder)
    assert abs(usage[0] - usage[1]) <= 1e-6


def test_multi_constraint_weak_duality():
    rng = np.random.default_rng(6)
    for _ in range(5):
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        phis = (np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
                np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex))
        problem = make_problem(h, phis=phis, budgets=(1.0, 1.5), d=2)
        result = solve_multi_constraint(problem)
        # any feasible primal value upper-bounds every dual value visited
        usage = weight_usage(problem.constraints, problem.constraint_supports, result.precoder)
        scale = min(1.0, float(np.min(problem.budgets / np.maximum(usage, 1e-300))))
        feasible = result.precoder * np.sqrt(scale)
        primal = precoder_wsmse(problem, feasible)
        assert all(d <= primal + 1e-9 for d in result.dual_values)
        lagrangian = precoder_wsmse(problem, result.precoder) + float(
            np.dot(result.multipliers, usage - problem.budgets))
        assert lagrangian <= primal + 1e-9


def test_multi_constraint_reports_binding():
    rng = np.random.default_rng(7)
    problem = random_instance(rng)
    result = solve_multi_constraint(problem)
    assert result.converged and result.stop == "exit_test"
    assert result.binding  # a single trace constraint binds at the optimum


def test_kkt_residual_trivial_point():
    problem = make_problem(np.eye(2), budgets=(1.0,))
    b = np.zeros((2, 2), dtype=complex)
    assert kkt_residual(problem, b, [0.0]) == pytest.approx(0.0, abs=1e-15)


def test_kkt_residual_at_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(10):
        problem = random_instance(rng)
        sol = solve_single_constraint(problem)
        assert np.all(sol.powers > 0)  # all streams active on these instances
        assert kkt_residual(problem, sol.precoder, [sol.water_level]) <= 1e-6


def test_kkt_residual_detects_non_stationary_points():
    rng = np.random.default_rng(9)
    problem = random_instance(rng)
    sol = solve_single_constraint(problem)
    b = sol.precoder + 0.1 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    assert kkt_residual(problem, b, [sol.water_level]) > 1e-3


def reference_multi_constraint(problem, step=0.1, max_outer=2000, constraint_tol=1e-2,
                               objective_tol=1e-6):
    """The dual subgradient solve written out pass by pass, kept as the
    oracle of solve_multi_constraint: per pass, the priced constraints are
    summed one by one; when every constraint is a real diagonal and no two
    share a coordinate (per-antenna budgets) the priced minimizer whitens
    the sum by the row scaling diag(phi)^{-1/2} and takes the leading left
    singular vectors of the whitened channel factor, else it solves
    X = phi^{-1} C for the channel factor C = H^H Omega^{-1/2} and takes
    the directions X V g^{-1/2} from the leading eigenpairs (V, g) of
    C^H X; it orders stream weights by stable argsort and gives the
    weighted MSE
    sum_i w_i / (1 + p_i g_i) of its powers and gains; the usage is the
    squared precoder row norms weighted by each diagonal for per-antenna
    budgets, else the contraction sum_ij Phi_ij (B B^H)_ji per constraint.
    Returns (precoder, multipliers, usage, trace, iterations, converged)."""
    def herm(a):
        return 0.5 * (a + a.conj().T)

    w, d, budgets = problem.weights, problem.streams, problem.budgets
    scale = np.maximum(budgets, 1e-300)
    vals, vecs = np.linalg.eigh(herm(problem.noise_cov))
    factor = problem.channel.conj().T @ herm((vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T)
    diagonals = [np.diag(p) for p in problem.constraints]
    per_antenna = all(np.array_equal(p, np.diag(q.real)) for p, q in zip(problem.constraints, diagonals)) \
        and np.count_nonzero(diagonals, axis=0).max() <= 1

    def minimizer(phi):
        if per_antenna:
            rows = 1.0 / np.sqrt(np.diag(phi).real)[:, None]
            left, sing, _ = np.linalg.svd(rows * factor, full_matrices=False)
            gains, basis = sing[:d] ** 2, left[:, :d]
        else:
            x = np.linalg.solve(herm(phi), factor)
            vals, vecs = np.linalg.eigh(herm(factor.conj().T @ x))
            gains, basis = vals[::-1][:d], x @ vecs[:, ::-1][:, :d]
            basis = basis / np.sqrt(np.where(gains > 0.0, gains, 1.0))
        rank = np.argsort(-w, kind="stable")
        active = gains > GAIN_RTOL * max(1.0, np.max(gains, initial=0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            levels = np.maximum(np.sqrt(w[rank] / gains) - 1.0 / gains, 0.0)
        powers = np.where(active, levels, 0.0)
        scaled = basis * np.sqrt(powers)
        columns = rows * scaled if per_antenna else scaled
        return columns[:, np.argsort(rank)], float(np.sum(w[rank] / (1.0 + powers * gains)))

    def stable(trace, window=5):
        if len(trace) < window + 1:
            return False
        tail = trace[-window - 1:]
        return all(abs(b - a) <= objective_tol * max(1.0, abs(trace[-1])) for a, b in zip(tail, tail[1:]))

    lam = np.ones(problem.num_constraints)
    trace, best, stall, diminish_from = [], np.inf, 0, None
    for iterations in range(1, max_outer + 1):
        precoder, value = minimizer(sum(l * p for l, p in zip(lam, problem.constraints)))
        if per_antenna:
            row_powers = (precoder.real ** 2 + precoder.imag ** 2).sum(axis=1)
            usage = np.array([float(q.real @ row_powers) for q in diagonals])
        else:
            bbh_t = (precoder @ precoder.conj().T).T  # tr{Phi X} as an elementwise contraction
            usage = (np.asarray(problem.constraints) * bbh_t).sum(axis=(-2, -1)).real
        trace.append(value)
        multipliers = lam
        if float(np.max((usage - budgets) / scale)) <= constraint_tol and stable(trace):
            return precoder, multipliers, usage, trace, iterations, True
        active = (lam > 10 * LAMBDA_FLOOR) | (usage > budgets)
        residual = float(np.max((np.abs(usage - budgets) / scale)[active])) if np.any(active) else 0.0
        if residual < best - 1e-12:
            best, stall = residual, 0
        else:
            stall += 1
            if stall >= STALL_WINDOW and diminish_from is None:
                diminish_from = iterations
        t = step if diminish_from is None else step / np.sqrt(1 + iterations - diminish_from)
        lam = np.maximum(LAMBDA_FLOOR, lam + t * (usage - budgets))
    return precoder, multipliers, usage, trace, max_outer, False


def test_multi_constraint_matches_reference_pass():
    # per-antenna links with sorted and unsorted stream weights, and links
    # whose constraints are not diagonal: bit for bit
    rng = np.random.default_rng(21)
    problems = ([antenna_link(rng) for _ in range(50)]
                + [antenna_link(rng, (0.5, 2.0)) for _ in range(5)]
                + [dense_link(rng, w) for w in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)) for _ in range(2)])
    for problem in problems:
        result = solve_multi_constraint(problem)
        precoder, multipliers, usage, trace, iterations, converged = reference_multi_constraint(problem)
        assert np.array_equal(result.precoder, precoder)
        assert np.array_equal(result.multipliers, multipliers)
        assert np.array_equal(result.usage, usage)
        assert np.array_equal(np.asarray(result.wsmse_trace), np.asarray(trace))
        assert (result.iterations, result.converged) == (iterations, converged)


def test_multi_constraint_pass_makes_one_decomposition(monkeypatch):
    # per pass the per-antenna price is whitened by a row scaling, with no
    # factorization, and the whitened 4x2 channel factor decomposed by one
    # SVD; the noise covariance is Cholesky-whitened once per solve, and
    # nothing meets eigh
    calls = count_decompositions(monkeypatch)
    result = solve_multi_constraint(antenna_link(np.random.default_rng(3)))
    assert result.iterations > 10
    assert calls[0] == ("cholesky", (1, 2, 2))
    assert calls[1:] == [("svd", (1, 4, 2))] * result.iterations


def test_dense_multi_constraint_pass_factors_its_price(monkeypatch):
    # constraints with off-diagonal entries: per pass the priced constraint
    # is solved with by one LU solve and the 2x2 C^H F^{-1} C meets one
    # eigh, after the one Cholesky factorization of the noise covariance;
    # nothing is SVD-decomposed
    calls = count_decompositions(monkeypatch, names=("eigh", "svd", "cholesky", "solve"))
    result = solve_multi_constraint(dense_link(np.random.default_rng(3)))
    assert result.iterations > 10
    assert calls[0] == ("cholesky", (1, 2, 2))
    assert calls[1:] == [("solve", (1, 4, 4)), ("eigh", (1, 2, 2))] * result.iterations


def array_residuals(usage, budgets, lam):
    """The array formula of the budget residuals: max relative excess, and
    the max |relative excess| over violated or meaningfully priced budgets."""
    excess = (usage - budgets) / budgets
    active = (lam > 10 * LAMBDA_FLOOR) | (usage > budgets)
    return float(excess.max()), float(np.abs(excess).max(where=active, initial=0.0))


def test_budget_residuals_match_the_array_formula_bit_for_bit():
    # multipliers on, and one ulp either side of, the 10 * LAMBDA_FLOOR
    # activity threshold, usage exactly on its budget, and NaN usage: the
    # floats give the array formula's bits, and a NaN usage a NaN violation
    rng = np.random.default_rng(41)
    threshold = 10 * LAMBDA_FLOOR
    lams = np.array([LAMBDA_FLOOR, threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, 1.0),
                     0.3, 2.0])
    seen = {"tie": 0, "on_budget": 0, "nan_active": 0, "nan_inactive": 0}
    for _ in range(4000):
        m = int(rng.integers(1, 6))
        budgets = 10.0 ** rng.uniform(-3.0, 1.0, m)
        usage = budgets * rng.uniform(0.0, 2.0, m)
        on_budget = rng.random(m) < 0.3
        usage[on_budget] = budgets[on_budget]
        lam = rng.choice(lams, m)
        nan = int(rng.integers(m)) if rng.random() < 0.15 else None
        if nan is not None:
            usage[nan] = np.nan
            seen["nan_active" if lam[nan] > threshold else "nan_inactive"] += 1
        seen["tie"] += int(np.any(lam == threshold))
        seen["on_budget"] += int(np.any(on_budget))
        got = budget_residuals((usage - budgets).tolist(), budgets.tolist(), lam.tolist())
        want = array_residuals(usage, budgets, lam)
        for g, w in zip(got, want):
            assert type(g) is float
            assert np.isnan(g) if np.isnan(w) else np.float64(g).tobytes() == np.float64(w).tobytes()
        if nan is not None:
            assert np.isnan(got[0]) and not got[0] <= 1e-2
    assert min(seen.values()) > 50, seen


def test_dual_loop_does_not_exit_on_a_nan_usage():
    run = dual_loop(lambda lam: 1.0, lambda: np.array([0.5, np.nan]), lambda trace, violation, residual:
                    violation <= 1e-2, np.ones(2), np.ones(2), 7)
    assert run.iterations == 7 and run.stop == "pass_cap"


def test_dual_loop_raises_when_the_multipliers_diverge():
    # a rule that multiplies lam by 1e6 passes LAMBDA_CAP on the third pass
    with pytest.raises(NumericalFailureError, match="multipliers diverged .* after 3 passes"):
        dual_loop(lambda lam: 1.0, lambda: np.array([2.0]), lambda trace, violation, residual: False,
                  np.ones(1), np.ones(1), 10, rule=lambda lam, usage, budgets, excess, since: lam * 1e6)


def test_receive_factors_of_an_indefinite_covariance_raise():
    with pytest.raises(NumericalFailureError, match="no Cholesky factor"):
        receive_factors(-np.eye(2, dtype=complex)[None], np.ones((1, 3, 2), dtype=complex))


def test_dual_loop_names_the_bound_that_stopped_it():
    budgets, lam = np.ones(1), np.ones(1)
    usage = [np.array([0.5])]

    def run_pass(lam):  # pricing lands within the budget
        usage[0] = np.array([0.5])
        return 1.0

    def polish(drift):
        def step(lam):
            usage[0] = np.array([2.0 if drift else 0.5])
            return 1.0, True
        return lambda: step

    def loop(max_outer, **kwargs):
        return dual_loop(run_pass, lambda: usage[0], lambda trace, violation, residual: violation <= 1e-2,
                         lam, budgets, max_outer, max_inner=3, constraint_tol=1e-2, **kwargs)

    first = loop(10)
    assert (first.stop, first.iterations) == ("exit_test", 1)
    polished = loop(10, polish=polish(False))
    assert (polished.stop, polished.iterations, polished.polish_start) == ("exit_test", 2, 1)
    # every polish run drifts over the budget and pricing brings it back
    rounds = loop(100, polish=polish(True))
    assert rounds.stop == "polish_rounds" and rounds.iterations == 2 * MAX_POLISH_ROUNDS
    # a drifting polish with no pricing passes left ends on the cap
    capped = loop(1, polish=polish(True))
    assert (capped.stop, capped.iterations) == ("pass_cap", 2)
    # pricing over budget runs out; a polish that lands within the budget
    # does not turn the cap into an exit
    over = dual_loop(lambda lam: 1.0, lambda: usage[0], lambda trace, violation, residual: False, lam, budgets, 4,
                     polish=polish(False), max_inner=3, polish_unconverged=True, constraint_tol=1e-2)
    assert (over.stop, over.iterations) == ("pass_cap", 5)

