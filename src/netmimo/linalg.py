"""Dense complex-matrix primitives shared by all beamforming solvers.

Everything operates on ``complex128`` numpy arrays.  Hermitian inputs are
validated and symmetrized before factorization; the ``_batch`` kernels
take exactly Hermitian stacks (a :func:`hermitian_part`, say), so round-off
asymmetry never reaches LAPACK.

The weights Phi_m of the power constraints tr{Phi_m B B^H} <= P_m are read
here only, and so is their format: their :func:`disjoint_diagonals`
(per-antenna or per-BS block masks) where those exist, else dense.
:func:`priced_weights`, :func:`repricer`, :func:`priced_form`,
:func:`weight_usage` and :func:`budget_scaling` take either, so no caller
branches on it; :func:`indefinite_members` checks their sum.

The LAPACK layer, the one way to numpy.linalg (``norm`` aside): each of
:func:`solve`, :func:`inv`, :func:`cholesky`, :func:`eigh`,
:func:`eigvalsh`, :func:`svd` and :func:`slogdet` is its np.linalg twin
(lower triangle, reduced SVD, plain tuples) on float64 or complex128
stacks without the per-call wrapper: numpy.linalg's gufunc, signature and
error state, so the same bits and a LinAlgError on a LAPACK failure.  The
gufuncs come from ``numpy.linalg._umath_linalg`` by name (numpy >= 2.0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import cholesky_lo, eigh_lo, eigvalsh_lo, inv as _inv, slogdet as _slogdet, \
    solve as _solve, svd_s

from .errors import ContractViolationError, NumericalFailureError, SingularMatrixError

# ||A - A^H||_F <= HERMITIAN_TOL * max(1, ||A||_F) is required of Hermitian inputs.
HERMITIAN_TOL = 1e-10
# Relative eigenvalue floor below which a matrix is treated as singular.
SINGULARITY_RTOL = 1e-12
# What psd_inv_sqrt and diagonal_whiteners raise for a matrix below that floor.
SINGULAR_MESSAGE = f"matrix is singular or indefinite (eigenvalue ratio below {SINGULARITY_RTOL:g})"
# Budget matching tolerance of the waterfilling bisection: 1e-9 * max(1, budget).
BUDGET_RTOL = 1e-9


def _failing_with(message: str) -> np.errstate:
    """numpy.linalg's error state, as a decorator: the invalid flag that a
    LAPACK failure sets raises LinAlgError(message); no other flag warns."""
    def fail(err, flag):
        raise LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_failing_with("Singular matrix")
def solve(a, b):
    """np.linalg.solve(a, b) for matrix right-hand sides b."""
    return _solve(a, b, signature="DD->D" if a.dtype.kind == "c" or b.dtype.kind == "c" else "dd->d")


def _unary(gufunc, real: str, cplx: str, failure: str | None):
    """The kernel of a one-matrix gufunc: its ``real`` or ``cplx`` signature
    by the dtype, inside :func:`_failing_with` ``failure`` when given."""
    def kernel(a):
        return gufunc(a, signature=cplx if a.dtype.kind == "c" else real)

    return kernel if failure is None else _failing_with(failure)(kernel)


inv = _unary(_inv, "d->d", "D->D", "Singular matrix")
cholesky = _unary(cholesky_lo, "d->d", "D->D", "Matrix is not positive definite")
eigh = _unary(eigh_lo, "d->dd", "D->dD", "Eigenvalues did not converge")
eigvalsh = _unary(eigvalsh_lo, "d->d", "D->d", "Eigenvalues did not converge")
svd = _unary(svd_s, "d->ddd", "D->DdD", "SVD did not converge")
slogdet = _unary(_slogdet, "d->dd", "D->Dd", None)  # numpy.linalg sets no error state for it either


def hermitian_lstsq(a, b) -> np.ndarray:
    """np.linalg.pinv(a, hermitian=True) @ b through numpy.linalg's wrapper; only singular systems take it."""
    return np.linalg.pinv(a, hermitian=True) @ b


def orthonormal_columns(a) -> np.ndarray:
    """The Q factor of np.linalg.qr(a)."""
    return np.linalg.qr(a)[0]


@dataclass(frozen=True)
class SpectrumDecomposition:
    """Leading part of an eigen spectrum: values sorted non-increasing,
    one orthonormal basis column per value."""

    values: np.ndarray
    basis: np.ndarray


@dataclass(frozen=True)
class PowerAllocation:
    """Non-negative per-stream powers and the water level that produced them.

    ``multiplier`` is ``inf`` for the degenerate zero-budget allocation.
    """

    levels: np.ndarray
    multiplier: float

    @property
    def total(self) -> float:
        return float(np.sum(self.levels))


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ContractViolationError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^H) / 2 over the last two axes; exactly Hermitian and idempotent."""
    out = a + adjoint(a)
    out *= 0.5
    return out


def require_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate that ``a`` is square and Hermitian within ``tol`` (relative),
    and return its symmetrized copy."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ContractViolationError(f"matrix must be square, got shape {a.shape}")
    a_h = a.conj().T
    diff = a - a_h
    # the test on squared Frobenius norms, which np.vdot sums
    if np.vdot(diff, diff).real > tol * tol * max(1.0, np.vdot(a, a).real):
        raise ContractViolationError(f"matrix is not Hermitian within {tol:g} (relative)")
    return 0.5 * (a + a_h)


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    a = require_hermitian(a)
    try:
        return eigh(a)
    except LinAlgError as exc:
        n = a.shape[0]
        raise NumericalFailureError(
            f"eigendecomposition of a {n}x{n} matrix did not converge"
        ) from exc


def hermitian_top_eigs(a, d: int) -> SpectrumDecomposition:
    """The ``d`` largest eigenvalues (descending) of a Hermitian matrix with
    the corresponding orthonormal eigenvectors: :func:`hermitian_top_eigs_batch`
    of the validated matrix.

    For repeated eigenvalues any orthonormal basis of the eigenspace may be
    returned; compare subspaces or derived scalars downstream, never raw
    eigenvectors.
    """
    a = require_hermitian(a)
    n = a.shape[0]
    if not 1 <= d <= n:
        raise ContractViolationError(f"d={d} outside [1, {n}]")
    vals, vecs = hermitian_top_eigs_batch(a[None], d)
    return SpectrumDecomposition(values=vals[0].copy(), basis=vecs[0].copy())


def psd_inv_sqrt(a) -> np.ndarray:
    """Inverse square root S of a Hermitian positive definite matrix:
    S Hermitian PSD with S a S = I, by :func:`psd_inv_sqrt_batch` of the
    validated matrix.

    Raises :class:`SingularMatrixError` when the smallest eigenvalue is not
    above ``SINGULARITY_RTOL`` times the largest, or the eigendecomposition
    fails.
    """
    roots, ok = psd_inv_sqrt_batch(require_hermitian(a)[None])
    if not ok[0]:
        raise SingularMatrixError(SINGULAR_MESSAGE)
    return roots[0]


def psd_inv_sqrt_batch(a) -> tuple[np.ndarray, np.ndarray]:
    """:func:`psd_inv_sqrt` of every matrix in an exactly Hermitian (K, n, n)
    stack (a :func:`hermitian_part`, say; it is neither checked nor
    symmetrized again): the inverse roots and a (K,) mask of the matrices
    :func:`psd_inv_sqrt` accepts; the roots of the others are meaningless."""
    try:
        vals, vecs = eigh(a)
    except LinAlgError:
        return np.array(a), np.zeros(a.shape[0], dtype=bool)
    vmax = vals[:, -1]
    ok = (vmax > 0.0) & (vals[:, 0] > SINGULARITY_RTOL * vmax)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_sqrt = (vecs * (1.0 / np.sqrt(vals))[:, None, :]) @ adjoint(vecs)
    return hermitian_part(inv_sqrt), ok


def diagonal_whiteners(f) -> np.ndarray:
    """Whitening factors of real diagonal matrices given by their (K, n)
    diagonals ``f``: the row scalings f_k^{-1/2}, (K, n), so that
    diag(f_k^{-1/2}) whitens diag(f_k).  Each diagonal faces
    :func:`psd_inv_sqrt`'s eigenvalue test, min f_k > SINGULARITY_RTOL
    max f_k > 0, exactly; one that fails it raises
    :class:`SingularMatrixError`.  Rows are tested one by one only if the
    whole stack fails the test."""
    # false for a NaN, and for max f_k <= 0, where min f_k <= SINGULARITY_RTOL max f_k
    if f.min() > SINGULARITY_RTOL * f.max() or (f.min(axis=-1) > SINGULARITY_RTOL * f.max(axis=-1)).all():
        return 1.0 / np.sqrt(f)
    raise SingularMatrixError(SINGULAR_MESSAGE)


def disjoint_diagonals(weights):
    """The (..., M, n) diagonals of a (..., M, n, n) stack of constraint
    weights when every weight is a real diagonal and no two of the M weights
    share a nonzero coordinate (per-antenna or per-BS block masks), else
    None.  Then tr{Phi_m X} = sum_i diagonals[m, i] X_ii, and
    sum_m lam_m Phi_m is diag(lam @ diagonals) with one term per entry."""
    diags = np.diagonal(weights, axis1=-2, axis2=-1)
    if np.count_nonzero(weights - diags[..., None] * np.eye(diags.shape[-1])) \
            or np.count_nonzero(diags.imag) or np.any(np.count_nonzero(diags, axis=-2) > 1):
        return None
    return diags.real.copy()


def priced_weights(weights, supports, lam, base=None) -> np.ndarray:
    """base + sum_m lam_m Phi_m for (..., M, n, n) constraint ``weights``
    and their :func:`disjoint_diagonals` ``supports`` (or None): the
    (..., n, n) stack, ``base`` 0 when not given, with the nonzero terms
    added in constraint order.  On supports each entry has at most one
    nonzero term, so lam @ supports added to the diagonal gives the bits of
    that sum (for a ``base`` that holds no -0)."""
    priced = np.zeros(weights.shape[:-3] + weights.shape[-2:], dtype=complex) if base is None else base.copy()
    if supports is None:
        for m in np.flatnonzero(lam):
            priced += lam[m] * weights[..., m, :, :]
    else:
        diag = np.arange(priced.shape[-1])
        priced[..., diag, diag] += lam @ supports
    return priced


def repricer(weights, supports):
    """reprice(base) -> price(lam): ``price`` gives the bits of
    ``priced_weights(weights, supports, lam, base)`` for a (..., n, n)
    ``base`` that it owns.  On supports, the one constraint weighing each
    coordinate i and its weight s_i there (0 where none does) are found
    here, once; a call of ``price`` rewrites only the diagonal of ``base``
    itself, to its starting diagonal plus lam[owner_i] s_i, the one nonzero
    term of (lam @ supports)_i.  Dense weights are priced afresh."""
    if supports is None:
        return lambda base: lambda lam: priced_weights(weights, None, lam, base)
    owner, scale = (supports != 0).argmax(axis=-2), supports.sum(axis=-2)

    def reprice(base):
        diagonal = np.einsum("...ii->...i", base)  # a view: price writes through it into base
        start = diagonal.copy()

        def price(lam):
            np.add(start, lam[owner] * scale, out=diagonal)
            return base

        return price

    return reprice


def priced_form(weights, supports, lam) -> np.ndarray:
    """sum_m lam_m Phi_m in the form :func:`single_user.priced_directions`
    takes: the (..., n) diagonals lam @ supports on supports, else the
    Hermitian part of the dense (..., n, n) sum (:func:`priced_weights`)."""
    return hermitian_part(priced_weights(weights, None, lam)) if supports is None else lam @ supports


def budget_scaling(supports, factors):
    """What a precoder stack is multiplied by to scale each usage_m by at
    most factors_m^2, factors in (0, 1]: on supports the (..., n, 1) factor
    of the one constraint weighing each row (0 where none does), exactly
    factors_m^2; for dense weights min_m factors_m (usage is quadratic)."""
    if supports is None:
        return float(np.min(factors))
    return (factors @ (supports != 0))[..., None]


def weight_usage(weights, supports, x) -> np.ndarray:
    """usage_m = sum_k tr{Phi_{k,m} B_k B_k^H} for (..., M, n, n) constraint
    ``weights``, their :func:`disjoint_diagonals` ``supports`` (or None) and
    the (..., n, d) precoders ``x``, added in ascending k
    (:func:`_add_rows`).  Without a leading k axis, the (M,) traces.  On
    supports the trace is sum_i supports[m, i] ||row_i B||^2; otherwise it
    is the elementwise contraction sum_ij Phi_ij (B B^H)_ji."""
    if supports is None:
        x_t = (x @ adjoint(x)).swapaxes(-1, -2)
        rows = (weights * x_t[..., None, :, :]).sum(axis=(-2, -1)).real
    else:
        powers = (x.real ** 2 + x.imag ** 2).sum(axis=-1)
        rows = (supports @ powers[..., None])[..., 0]
    return rows if rows.ndim == 1 else _add_rows(rows)


def _add_rows(rows) -> np.ndarray:
    """The bits of ``usage = 0; usage += row`` over the rows, in one
    accumulation: + 0.0 turns its only difference, a -0, into +0."""
    return np.add.accumulate(rows)[-1] + 0.0


def ascending_sum(values) -> float:
    """The bits of ``total = 0.0; for v in values: total += v`` over a
    non-empty 1-D float array (:func:`_add_rows`)."""
    return float(_add_rows(values))


def indefinite_members(a) -> list:
    """Indices of the matrices in a (K, n, n) stack, Hermitian and read by
    its lower triangle only, that are not positive definite:
    lambda_min <= SINGULARITY_RTOL max(1, lambda_max), or a NaN spectrum."""
    evals = eigvalsh(a)
    return [k for k, (low, high) in enumerate(zip(evals[:, 0].tolist(), evals[:, -1].tolist()))
            if not low > SINGULARITY_RTOL * max(1.0, high)]


def hermitian_top_eigs_batch(a, d: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_top_eigs` of every matrix in an exactly Hermitian
    (K, n, n) stack (a :func:`hermitian_part`, say; it is neither checked nor
    symmetrized again): (K, d) values, descending, and (K, n, d) bases, the
    top ``d`` of ``eigh``'s ascending output reversed."""
    try:
        vals, vecs = eigh(a)
    except LinAlgError as exc:
        raise NumericalFailureError(
            f"eigendecomposition of a {a.shape[-1]}x{a.shape[-1]} matrix did not converge"
        ) from exc
    return vals[:, ::-1][:, :d], vecs[:, :, ::-1][:, :, :d]


def thin_svd(a, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading ``d`` singular triplets of ``a``: (left, singulars, right) with
    a ~= left @ diag(singulars) @ right^H plus the discarded directions.
    Singular values sorted descending, both bases orthonormal."""
    a = _as_matrix(a)
    kmax = min(a.shape)
    if not 1 <= d <= kmax:
        raise ContractViolationError(f"d={d} outside [1, {kmax}]")
    try:
        u, s, vh = svd(a)
    except LinAlgError as exc:
        raise NumericalFailureError(
            f"SVD of a {a.shape[0]}x{a.shape[1]} matrix did not converge"
        ) from exc
    return u[:, :d].copy(), s[:d].copy(), vh[:d].conj().T.copy()


def _check_waterfill_args(weights, gains) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weights, dtype=float)
    g = np.asarray(gains, dtype=float)
    if w.ndim != 1 or w.shape != g.shape:
        raise ContractViolationError("weights and gains must be equal-length 1-D arrays")
    if np.any(w < 0):
        raise ContractViolationError("weights must be non-negative")
    if np.any(g <= 0):
        raise ContractViolationError("gains must be strictly positive")
    return w, g


def waterfill_eval(weights, gains, mu: float) -> PowerAllocation:
    """Evaluate the waterfilling powers p_i = [sqrt(w_i / (mu g_i)) - 1/g_i]^+
    at a fixed water level ``mu > 0``."""
    w, g = _check_waterfill_args(weights, gains)
    if mu <= 0:
        raise ContractViolationError("water level mu must be positive")
    p = np.sqrt(w / (mu * g)) - 1.0 / g
    return PowerAllocation(levels=np.maximum(p, 0.0), multiplier=float(mu))


def bisect_level(total, target: float, label: str) -> float:
    """Water level mu at which the non-increasing map ``total`` meets
    ``target`` within ``BUDGET_RTOL * max(1, target)``: the bracket
    [1e-12, 1] is widened (x1e-2 down at most 100 times, x2 up at most 200
    times), then halved at most 200 times.  Failures raise
    :class:`NumericalFailureError` naming the ``label`` bisection."""
    lo = 1e-12
    guard = 0
    while total(lo) < target:
        lo *= 1e-2
        guard += 1
        if guard > 100:
            raise NumericalFailureError(f"{label} bisection could not bracket the budget from below")
    hi = max(1.0, 2.0 * lo)
    guard = 0
    while total(hi) > target:
        hi *= 2.0
        guard += 1
        if guard > 200:
            raise NumericalFailureError(f"{label} bisection could not bracket the budget from above")
    tol = BUDGET_RTOL * max(1.0, target)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        t = total(mu)
        if abs(t - target) <= tol:
            return mu
        if t > target:
            lo = mu
        else:
            hi = mu
    raise NumericalFailureError(f"{label} bisection did not reach the budget tolerance")


def waterfill_budget(weights, gains, budget: float) -> PowerAllocation:
    """Waterfilling powers meeting a total budget: sum_i p_i(mu) = budget
    within ``1e-9 * max(1, budget)``, with mu found by :func:`bisect_level`
    on the monotone (non-increasing) map mu -> sum_i p_i(mu).

    A zero budget returns the all-zero allocation with mu = inf.
    """
    w, g = _check_waterfill_args(weights, gains)
    if budget < 0:
        raise ContractViolationError("budget must be non-negative")
    if budget == 0:
        return PowerAllocation(levels=np.zeros_like(w), multiplier=float("inf"))

    def total(mu: float) -> float:
        return float(np.sum(np.maximum(np.sqrt(w / (mu * g)) - 1.0 / g, 0.0)))

    return waterfill_eval(w, g, bisect_level(total, budget, "waterfilling"))
