"""Kernel tests: eigen/SVD contracts and waterfilling."""

import warnings

import numpy as np
import pytest

from netmimo import (
    ContractViolationError,
    NumericalFailureError,
    PartialCooperationSystem,
    SingularMatrixError,
    build_interference_problem,
    hermitian_top_eigs,
    psd_inv_sqrt,
    thin_svd,
    waterfill_budget,
    waterfill_eval,
)
from netmimo.algorithms import _solve_systems
from netmimo.linalg import (SINGULARITY_RTOL, _add_rows, adjoint, ascending_sum, bisect_level, budget_scaling,
                            cholesky, diagonal_whiteners, disjoint_diagonals, eigh, eigvalsh, hermitian_eig,
                            hermitian_part, hermitian_top_eigs_batch, inv, priced_form, priced_weights,
                            psd_inv_sqrt_batch, repricer, slogdet, solve, svd, weight_usage)
from netmimo.model import ReceiveSide
from netmimo.single_user import receive_factors


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def random_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


def char_poly_roots_3x3(a):
    """Independent eigenvalue oracle for a 3x3 Hermitian matrix: roots of the
    characteristic polynomial with explicitly computed coefficients."""
    tr = np.trace(a)
    minors = 0.0
    for i in range(3):
        idx = [j for j in range(3) if j != i]
        sub = a[np.ix_(idx, idx)]
        minors += sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    roots = np.roots([1.0, -tr.real, minors.real, -det.real])
    return np.sort(roots.real)[::-1]


def test_top_eigs_identity():
    spec = hermitian_top_eigs(np.eye(2), 2)
    assert np.allclose(spec.values, [1.0, 1.0])
    assert np.allclose(spec.basis.conj().T @ spec.basis, np.eye(2), atol=1e-10)


def test_top_eigs_diagonal():
    spec = hermitian_top_eigs(np.diag([4.0, 1.0]), 1)
    assert np.allclose(spec.values, [4.0])
    assert np.allclose(np.abs(spec.basis.ravel()), [1.0, 0.0], atol=1e-12)


def test_top_eigs_against_char_poly_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_hermitian(rng, 3)
        spec = hermitian_top_eigs(a, 3)
        expected = char_poly_roots_3x3(a)
        assert np.allclose(spec.values, expected, rtol=1e-7, atol=1e-7)
        recon = spec.basis @ np.diag(spec.values) @ spec.basis.conj().T
        assert np.linalg.norm(recon - a) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_top_eigs_sorted_and_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_hermitian(rng, 5)
        spec = hermitian_top_eigs(a, 3)
        assert np.all(np.diff(spec.values) <= 1e-12)
        gram = spec.basis.conj().T @ spec.basis
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-10


def test_hermitian_eig_returns_the_ascending_spectrum_of_the_symmetrized_input():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 4)
    tilted = a + 1e-13 * rng.standard_normal((4, 4))  # within HERMITIAN_TOL
    values, vectors = hermitian_eig(tilted)
    assert np.all(np.diff(values) > 0)
    assert np.array_equal(values, np.linalg.eigh(hermitian_part(tilted))[0])
    assert np.allclose(a @ vectors, vectors * values, rtol=0, atol=1e-12)
    assert np.allclose(adjoint(vectors) @ vectors, np.eye(4), rtol=0, atol=1e-12)
    with pytest.raises(ContractViolationError):
        hermitian_eig(a + 1e-6 * np.triu(np.ones((4, 4)), 1))


def test_top_eigs_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        hermitian_top_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_top_eigs_rejects_bad_count():
    with pytest.raises(ContractViolationError):
        hermitian_top_eigs(np.eye(2), 3)


def test_psd_inv_sqrt_identity_and_diagonal():
    assert np.allclose(psd_inv_sqrt(np.eye(3)), np.eye(3))
    s = psd_inv_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(s, np.diag([0.5, 1.0 / 3.0]))


def test_psd_inv_sqrt_contract():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_pd(rng, 3)
        s = psd_inv_sqrt(a)
        assert np.linalg.norm(s @ a @ s - np.eye(3)) <= 1e-8
        assert np.linalg.norm(s - s.conj().T) <= 1e-10 * np.linalg.norm(s)


def test_psd_inv_sqrt_known_spectrum():
    # reconstruction oracle: build the matrix from a known eigensystem
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    vals = np.array([0.5, 2.0, 5.0])
    a = q @ np.diag(vals) @ q.conj().T
    expected = q @ np.diag(1.0 / np.sqrt(vals)) @ q.conj().T
    assert np.allclose(psd_inv_sqrt(a), expected, atol=1e-10)


def test_psd_inv_sqrt_composition_identity():
    rng = np.random.default_rng(4)
    a = random_pd(rng, 4)
    s = psd_inv_sqrt(a)
    # s is itself PD; applying the kernel to s^-2 = a reproduces s
    again = psd_inv_sqrt(np.linalg.inv(s @ s))
    assert np.linalg.norm(again - s) <= 1e-7 * np.linalg.norm(s)


def test_psd_inv_sqrt_rejects_singular():
    with pytest.raises(SingularMatrixError):
        psd_inv_sqrt(np.diag([1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        psd_inv_sqrt(np.diag([1.0, -0.5]))


def test_top_eigs_batch_matches_per_matrix():
    rng = np.random.default_rng(30)
    stack = np.stack([random_hermitian(rng, 4) for _ in range(6)])
    vals, bases = hermitian_top_eigs_batch(stack, 3)
    assert vals.shape == (6, 3) and bases.shape == (6, 4, 3)
    for k, a in enumerate(stack):
        spec = hermitian_top_eigs(a, 3)
        assert np.allclose(vals[k], spec.values, rtol=0, atol=1e-12)
        # distinct eigenvalues: the same columns up to phase
        overlaps = np.abs(np.sum(bases[k].conj() * spec.basis, axis=0))
        assert np.allclose(overlaps, 1.0, rtol=0, atol=1e-12)


def test_top_eigs_batch_repeated_eigenvalues():
    # an identity block with zero-padded coordinates, and a doubled
    # eigenvalue beside a dense Hermitian block: exact ties at 2, 1 and 0
    a = np.zeros((2, 5, 5), dtype=complex)
    a[0, :3, :3] = np.eye(3)
    a[1, :2, :2] = 2.0 * np.eye(2)
    a[1, 2:4, 2:4] = [[1.0, 0.5j], [-0.5j, 1.0]]
    vals, bases = hermitian_top_eigs_batch(a, 5)
    assert np.all(np.diff(vals, axis=-1) <= 0.0)
    assert np.allclose(vals, [[1, 1, 1, 0, 0], [2, 2, 1.5, 0.5, 0]], rtol=0, atol=1e-12)
    for k in range(2):
        assert np.allclose(adjoint(bases[k]) @ bases[k], np.eye(5), atol=1e-12)
        assert np.allclose(a[k] @ bases[k], bases[k] * vals[k], atol=1e-12)
    # the tied leading columns span exactly the tied eigenspace
    for k, width, proj in ((0, 3, np.diag([1, 1, 1, 0, 0])), (1, 2, np.diag([1, 1, 0, 0, 0]))):
        top = bases[k][:, :width]
        assert np.allclose(top @ adjoint(top), proj, atol=1e-12)
    # cut inside a tie: every column is still an eigenvector of the tied value
    vals2, bases2 = hermitian_top_eigs_batch(a, 2)
    assert np.array_equal(vals2, vals[:, :2])
    assert np.allclose(a[0] @ bases2[0], bases2[0], atol=1e-12)


def test_psd_inv_sqrt_batch_matches_per_matrix():
    rng = np.random.default_rng(31)
    stack = hermitian_part(np.stack([random_pd(rng, 4) for _ in range(5)]))
    roots, ok = psd_inv_sqrt_batch(stack)
    assert ok.all()
    for k, a in enumerate(stack):
        assert np.allclose(roots[k], psd_inv_sqrt(a), rtol=0, atol=1e-12)
        assert np.allclose(roots[k] @ a @ roots[k], np.eye(4), atol=1e-10)


def test_psd_inv_sqrt_batch_flags_singular_member():
    rng = np.random.default_rng(32)
    v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    stack = hermitian_part(np.stack([random_pd(rng, 4), v @ v.conj().T, random_pd(rng, 4), np.zeros((4, 4))]))
    roots, ok = psd_inv_sqrt_batch(stack)
    assert ok.tolist() == [True, False, True, False]
    assert np.allclose(roots[2], psd_inv_sqrt(stack[2]), rtol=0, atol=1e-12)
    with pytest.raises(SingularMatrixError):
        psd_inv_sqrt(stack[1])


def test_diagonal_whiteners_take_the_exact_eigenvalue_test():
    # diagonals on either side of the SINGULARITY_RTOL floor, a zero, a
    # negative and a NaN entry: psd_inv_sqrt's verdict on diag(f), row by row
    f = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 1e-6, 1e3, 1.0], [1.0, 3e-12, 1.0, 1.0],
                  [1.0, 0.5e-12, 1.0, 1.0], [1.0, 0.0, 2.0, 1.0], [1.0, -1.0, 1.0, 1.0],
                  [1.0, np.nan, 1.0, 1.0]])
    dense = f[:, :, None] * np.eye(4)
    accepted = psd_inv_sqrt_batch(dense)[1]
    assert accepted.tolist() == [True, True, True, False, False, False, False]
    scale = diagonal_whiteners(f[:3])
    assert scale.shape == (3, 4)
    assert np.array_equal(scale, 1.0 / np.sqrt(f[:3]))
    for k in range(3, len(f)):
        with pytest.raises(SingularMatrixError):
            diagonal_whiteners(f[[0, k]])


def test_diagonal_whiteners_test_rows_when_the_whole_stack_fails():
    # rows about 1e-14 and about 1 in scale: min f <= SINGULARITY_RTOL max f
    # over the stack, while each row clears the test on its own, so the row
    # scalings come back; a row that fails its own test still raises
    f = np.array([[1e-14, 3e-14, 2e-14, 1.5e-14], [1.0, 2.0, 0.5, 1.0]])
    assert not f.min() > SINGULARITY_RTOL * f.max()
    assert np.array_equal(diagonal_whiteners(f), 1.0 / np.sqrt(f))
    bad = np.vstack([f, [1.0, 1e-13, 1.0, 1.0]])
    with pytest.raises(SingularMatrixError):
        diagonal_whiteners(bad)


def test_disjoint_diagonals_find_block_masks_only():
    masks = np.stack([np.diag(m).astype(complex) for m in ([1.0, 1.0, 0.0], [0.0, 0.0, 0.5])])
    assert np.array_equal(disjoint_diagonals(masks), [[1.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    assert disjoint_diagonals(np.stack([masks, masks[::-1]])).shape == (2, 2, 3)
    rng = np.random.default_rng(36)
    factor = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    for weights in (np.stack([np.eye(3), masks[1]]),                        # overlapping
                    np.stack([np.diag([1.0, 1j, 0.0]), masks[1]]),          # complex
                    np.stack([factor @ factor.conj().T, masks[1]])):        # off-diagonal
        assert disjoint_diagonals(weights.astype(complex)) is None
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    usage = weight_usage(masks, disjoint_diagonals(masks), b)
    assert np.allclose(usage, [np.trace(p @ b @ b.conj().T).real for p in masks], rtol=1e-15, atol=0)


def test_weight_usage_traces_precoders_in_both_formats():
    # tr{Phi_m B B^H} from the supports of block masks and densely, for one
    # user and summed over two
    rng = np.random.default_rng(37)
    masks = np.stack([np.diag(m).astype(complex) for m in ([1.0, 1.0, 0.0], [0.0, 0.0, 0.5])])
    factor = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    covariances = b @ adjoint(b)
    for weights in (masks, np.stack([factor @ factor.conj().T, masks[1]])):
        supports = disjoint_diagonals(weights)
        per_user = np.array([[np.trace(p @ x).real for p in weights] for x in covariances])
        stacked, stacked_supports = np.stack([weights, weights]), None if supports is None else np.stack([supports] * 2)
        assert np.allclose(weight_usage(weights, supports, b[0]), per_user[0], rtol=1e-15, atol=0)
        assert np.allclose(weight_usage(stacked, stacked_supports, b), per_user[0] + per_user[1],
                           rtol=1e-15, atol=0)
    assert np.allclose(weight_usage(masks, None, b[0]), weight_usage(masks, disjoint_diagonals(masks), b[0]),
                       rtol=1e-15, atol=0)


def format_cases(rng):
    """(weights, supports) of two users' constraints in both formats: block
    masks that leave the last coordinate unweighted, and a dense weight."""
    masks = np.stack([np.diag(m).astype(complex) for m in ([1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0])])
    factor = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    dense = np.stack([factor @ factor.conj().T, masks[1]])
    return [(w, disjoint_diagonals(w)) for w in (np.stack([masks, masks[::-1]]), np.stack([dense, dense]))]


def test_repricer_gives_the_bits_of_priced_weights_in_both_formats():
    # one repricer serves every base it is given, each priced on its own
    rng = np.random.default_rng(43)
    for (weights, supports), dense in zip(format_cases(rng), (False, True)):
        assert (supports is None) == dense
        reprice = repricer(weights, supports)
        for _ in range(2):
            base = np.stack([random_hermitian(rng, 4) for _ in range(2)])
            price = reprice(base.copy())
            for lam in (rng.random(2), np.array([0.0, 2.5]), rng.random(2)):
                assert np.array_equal(price(lam), priced_weights(weights, supports, lam, base))


def test_priced_form_is_the_priced_sum_in_the_form_of_its_format():
    rng = np.random.default_rng(44)
    for weights, supports in format_cases(rng):
        lam = rng.random(2)
        form = priced_form(weights[0], None if supports is None else supports[0], lam)
        total = lam[0] * weights[0, 0] + lam[1] * weights[0, 1]
        if supports is None:
            assert np.allclose(form, total, rtol=1e-15, atol=0) and np.array_equal(form, adjoint(form))
        else:
            assert np.array_equal(form, np.diagonal(total).real)


def test_budget_scaling_brings_each_usage_within_its_factor():
    # usage_m scales by factors_m^2 exactly on supports, and by at most
    # that for dense weights
    rng = np.random.default_rng(45)
    b = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    factors = np.array([0.5, 1.0])
    for weights, supports in format_cases(rng):
        usage = weight_usage(weights, supports, b)
        scaled = weight_usage(weights, supports, budget_scaling(supports, factors) * b)
        if supports is None:
            assert np.allclose(scaled, usage * 0.25, rtol=1e-14, atol=0)
        else:
            assert np.allclose(scaled, usage * factors ** 2, rtol=1e-14, atol=0)


def test_weight_usage_adds_its_rows_as_a_loop_from_zeros_would():
    # one accumulation gives the bits of usage = 0; usage += row, signed
    # zeros included: a column of -0 sums to the loop's +0
    rng = np.random.default_rng(41)
    for trial in range(300):
        rows = rng.standard_normal((int(rng.integers(1, 6)), 4))
        zeros = rng.random(rows.shape) < 0.5
        rows[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        if trial == 0:
            rows[:] = -0.0
        want = np.zeros(4)
        for row in rows:
            want += row
        got = _add_rows(rows)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_ascending_sum_has_the_bits_of_the_python_loop():
    # total = 0.0; total += v over values spread over decades, signed zeros
    # included (all -0 sums to the loop's +0), and a NaN
    rng = np.random.default_rng(45)
    for trial in range(300):
        values = rng.standard_normal(int(rng.integers(1, 51))) * 10.0 ** rng.integers(-8, 9)
        zeros = rng.random(values.size) < 0.3
        values[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        if trial == 0:
            values[:] = -0.0
        if trial % 10 == 1:
            values[rng.integers(values.size)] = np.nan
        want = 0.0
        for v in values.tolist():
            want += v
        got = ascending_sum(values)
        assert type(got) is float
        assert np.array_equal(got, want, equal_nan=True) and np.signbit(got) == np.signbit(want)


def test_thin_svd_identity():
    left, sing, right = thin_svd(np.eye(2), 2)
    assert np.allclose(sing, [1.0, 1.0])
    assert np.allclose(left @ np.diag(sing) @ right.conj().T, np.eye(2), atol=1e-12)


def test_thin_svd_rank_one():
    x = np.array([[2.0], [0.0], [0.0]])
    y = np.array([[1.0], [0.0]])
    left, sing, right = thin_svd(x @ y.conj().T, 1)
    assert np.allclose(sing, [2.0])


def test_thin_svd_against_gram_oracle():
    # oracle: singular values squared are the eigenvalues of a^H a, computed
    # from the closed-form quadratic roots of the 2x2 gram matrix
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        g = a.conj().T @ a
        tr, det = g[0, 0].real + g[1, 1].real, (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real
        disc = np.sqrt(max(tr * tr / 4 - det, 0.0))
        expected = np.sqrt(np.array([tr / 2 + disc, max(tr / 2 - disc, 0.0)]))
        left, sing, right = thin_svd(a, 2)
        assert np.allclose(sing, expected, rtol=1e-8, atol=1e-10)
        assert np.linalg.norm(left @ np.diag(sing) @ right.conj().T - a) <= 1e-8 * np.linalg.norm(a)
        assert np.linalg.norm(left.conj().T @ left - np.eye(2)) <= 1e-10
        assert np.linalg.norm(right.conj().T @ right - np.eye(2)) <= 1e-10


def test_thin_svd_rejects_bad_count():
    with pytest.raises(ContractViolationError):
        thin_svd(np.ones((3, 2)), 3)


def test_waterfill_eval_formula():
    assert np.allclose(waterfill_eval([4.0], [1.0], 1.0).levels, [1.0])
    assert np.allclose(waterfill_eval([1.0], [0.5], 4.0).levels, [0.0])  # clamped
    assert np.allclose(waterfill_eval([1.0], [4.0], 1.0).levels, [0.25])


def test_waterfill_eval_rejects_bad_gains():
    with pytest.raises(ContractViolationError):
        waterfill_eval([1.0], [0.0], 1.0)
    with pytest.raises(ContractViolationError):
        waterfill_eval([1.0], [-1.0], 1.0)


def test_waterfill_budget_symmetric():
    alloc = waterfill_budget([1.0, 1.0], [1.0, 1.0], 2.0)
    assert abs(alloc.multiplier - 0.25) <= 1e-6
    assert np.allclose(alloc.levels, [1.0, 1.0], atol=1e-9)


def test_waterfill_budget_two_stream_analytic():
    # oracle: with both streams active, sqrt(1/mu)(1/2 + 1) = P + 1/4 + 1
    # gives mu = 4/9 and p = [1/2, 1/2]; cross-checked on a fine mu grid
    w, g, budget = np.array([1.0, 1.0]), np.array([4.0, 1.0]), 1.0
    grid = np.linspace(0.05, 2.0, 200001)
    totals = np.array([np.sum(np.maximum(np.sqrt(w / (m * g)) - 1 / g, 0.0)) for m in grid])
    mu_grid = grid[np.argmin(np.abs(totals - budget))]
    assert abs(mu_grid - 4.0 / 9.0) <= 1e-4
    alloc = waterfill_budget(w, g, budget)
    assert abs(alloc.multiplier - 4.0 / 9.0) <= 1e-6
    assert np.allclose(alloc.levels, [0.5, 0.5], atol=1e-9)


def test_bisect_level_failures_raise_numerical_failure():
    # a map that never reaches the target from below or from above, and a
    # step that jumps over it, so that no level meets the tolerance
    for total, what in ((lambda mu: 0.0, "from below"), (lambda mu: 2.0, "from above"),
                        (lambda mu: 2.0 if mu < 0.5 else 0.0, "did not reach the budget tolerance")):
        with pytest.raises(NumericalFailureError, match=f"level bisection .*{what}"):
            bisect_level(total, 1.0, "level")


def test_waterfill_budget_zero():
    alloc = waterfill_budget([1.0, 2.0], [1.0, 3.0], 0.0)
    assert np.all(alloc.levels == 0.0)
    assert np.isinf(alloc.multiplier)


def test_waterfill_budget_meets_budget_and_monotone():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = rng.integers(1, 6)
        w = rng.uniform(0.1, 4.0, n)
        g = rng.uniform(0.1, 10.0, n)
        budget = rng.uniform(0.0, 5.0)
        alloc = waterfill_budget(w, g, budget)
        assert abs(alloc.total - budget) <= 1e-9 * max(1.0, budget)
        assert np.all(alloc.levels >= 0.0)
        # total power is non-increasing in the water level
        if np.isfinite(alloc.multiplier):
            lower = waterfill_eval(w, g, alloc.multiplier * 0.5)
            higher = waterfill_eval(w, g, alloc.multiplier * 2.0)
            assert lower.total >= alloc.total >= higher.total


def test_waterfill_budget_matches_eval_at_returned_level():
    alloc = waterfill_budget([1.0, 2.0, 0.5], [3.0, 1.0, 2.0], 1.7)
    again = waterfill_eval([1.0, 2.0, 0.5], [3.0, 1.0, 2.0], alloc.multiplier)
    assert np.allclose(alloc.levels, again.levels)


def assert_same_bits(got, want):
    """Each array of a kernel's result has the dtype, shape and bytes of its
    np.linalg twin's."""
    got, want = (got, want) if isinstance(want, tuple) else ((got,), (want,))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape) and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
@pytest.mark.parametrize("dtype", [float, complex])
def test_kernels_give_the_bits_of_numpy_linalg(n, dtype):
    # batched stacks, matrix right-hand sides, tall and wide SVDs, a real
    # system with a complex right-hand side, and one unbatched matrix
    rng = np.random.default_rng(200 + n)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    a, b, thin = draw(4, n, n), draw(4, n, 3), draw(4, n, max(1, n // 2))
    pd = a @ adjoint(a) + np.eye(n)
    assert_same_bits(solve(a, b), np.linalg.solve(a, b))
    assert_same_bits(solve(a.real, b), np.linalg.solve(a.real, b))
    assert_same_bits(solve(a[0], b[0]), np.linalg.solve(a[0], b[0]))
    assert_same_bits(inv(a), np.linalg.inv(a))
    assert_same_bits(cholesky(pd), np.linalg.cholesky(pd))
    assert_same_bits(eigh(pd), tuple(np.linalg.eigh(pd)))
    assert_same_bits(eigh(a), tuple(np.linalg.eigh(a)))  # both read the lower triangle
    assert_same_bits(eigvalsh(pd), np.linalg.eigvalsh(pd))
    for m in (thin, adjoint(thin), a):
        assert_same_bits(svd(m), tuple(np.linalg.svd(m, full_matrices=False)))
    assert_same_bits(slogdet(a), tuple(np.linalg.slogdet(a)))


def test_kernel_failures_raise_as_numpy_linalg_does_and_do_not_warn():
    # a LAPACK failure still raises LinAlgError, so the callers that catch it
    # still run: _solve_systems' per-block fallback, ReceiveSide.equalizers
    # naming the singular user, and receive_factors' NumericalFailureError
    # on an Omega that is not positive definite or holds a NaN
    rng = np.random.default_rng(45)
    singular = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])]).astype(complex)
    rhs = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
    problem = build_interference_problem(PartialCooperationSystem(
        nt=2, nr=2, bs_power=[1.0, 1.0], channels=rng.standard_normal((2, 2, 2, 2)) + 0j,
        serving_sets=((0,), (1,)), streams=(1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel, message in ((lambda x: solve(x, rhs[:, :, 0]), "Singular matrix"),
                                (inv, "Singular matrix"), (cholesky, "not positive definite")):
            with pytest.raises(np.linalg.LinAlgError, match=message):
                kernel(singular)
        solved = _solve_systems(singular, rhs).reshape(rhs.shape)
        for j in range(2):
            assert np.array_equal(solved[0, :, j], np.linalg.solve(singular[0], rhs[0, :, j]))
            assert np.array_equal(solved[1, :, j], np.linalg.pinv(singular[1], hermitian=True) @ rhs[1, :, j])
        rx = ReceiveSide(problem, [np.ones((2, 1), dtype=complex)] * 2)
        rx.omegas = rx.omegas.copy()
        rx.omegas[1] = -rx.signals[1] @ adjoint(rx.signals[1])  # user 1's total covariance is 0
        with pytest.raises(NumericalFailureError, match="covariance of user 1 is singular"):
            rx.equalizers
        for omega in (-np.eye(2), np.array([[1.0, 0.0], [np.nan, 1.0]]), np.full((2, 2), np.nan)):
            with pytest.raises(NumericalFailureError, match="no Cholesky factor"):
                receive_factors(omega.astype(complex)[None], np.ones((1, 3, 2), dtype=complex))
