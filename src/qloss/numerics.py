"""Dense complex matrix kernel used by every other module.

All functions operate on ``numpy.ndarray`` values (complex128, except that
:func:`singular_values` keeps real input real) and are pure:
inputs are never mutated, so everything here is thread-safe.

Stack convention: :func:`check_hermitian`, :func:`eigh`, :func:`eigenvalues`,
:func:`sqrt_psd` and :func:`inv_sqrt_psd` take a single ``(d, d)`` matrix or
a stack of shape ``(..., d, d)`` and apply to each matrix of the stack, with
results stacked over the same leading axes. A stack of one runs exactly the
arithmetic of the single-matrix call, so the results agree bit for bit. A
check that fails on any member of a stack raises.

:func:`eigenvalues` is for callers that read only the spectrum. Up to
dimension 25 it returns :func:`eigh`'s eigenvalues, bit for bit; above 25 it
computes no eigenvectors, and its values may differ from :func:`eigh`'s in
the last bits.

Conventions, fixed once to avoid cross-module sign/order bugs:

* eigenvalues are returned ascending,
* singular values are returned descending,
* spectra are those of (h + h†)/2, because downstream entanglement
  criteria are eigenvalue-sign-sensitive.

Each eigensolving operation is one private kernel, which symmetrizes and
calls LAPACK and checks nothing else (:func:`_eigh`, :func:`_eigenvalues`,
and :func:`_sqrt_psd` and :func:`_inv_sqrt_psd`, which keep their PSD check
and the :func:`support` rule). The public :func:`eigh`, :func:`eigenvalues`,
:func:`sqrt_psd` and :func:`inv_sqrt_psd` are :func:`check_hermitian` plus
that kernel, bit for bit. Hermiticity is checked where a matrix enters
qloss: here, in ``DensityMatrix(...)``, :meth:`DensityMatrix.create`,
:func:`~qloss.states.normalize_density` and
:func:`~qloss.criteria.stacked_negativity`. A matrix that qloss validated or
built goes to the kernels unchecked. The states :mod:`qloss.states` builds
are symmetrized once where they are made, which leaves them, and their
partial transposes, equal to their conjugate transposes entry for entry;
above dimension 25 :func:`_built_eigenvalues` hands those to LAPACK with no
symmetrization either.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailureError, NotHermitianError, NotPSDError

#: Absolute tolerance for Hermiticity checks.
HERMITIAN_ATOL = 1e-12

#: Eigenvalues below -PSD_ATOL fail positive-semidefiniteness checks.
PSD_ATOL = 1e-10

#: Default relative eigenvalue threshold for rank decisions.
RANK_TOL = 1e-10

# Largest dimension at which eigenvalues() still takes eigh's values. 25 is
# zheevd's SMLSIZ, the size at which LAPACK itself switches how it finds
# eigenvectors. Up to it the values stay bit-identical to eigh's, which keeps
# every two-qubit negativity and every seeded output (none above 25) unchanged.
_EIGENVECTORS_UP_TO = 25


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _phase_fixed_qr(x: np.ndarray) -> np.ndarray:
    """Q of the QR decomposition of a matrix, or of each matrix of a stack,
    with each column's phase fixed by R's diagonal; a column whose diagonal
    entry is zero keeps its phase. On square complex Gaussian input the
    result is Haar distributed."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    d = np.where(np.abs(d) > 1e-300, d / np.abs(d), 1.0)
    return q * d[..., None, :]


def _is_square(m: np.ndarray) -> bool:
    return m.ndim >= 2 and m.shape[-1] == m.shape[-2]


def check_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL, what: str = "matrix") -> None:
    """Raise :class:`NotHermitianError` unless ``m`` is a Hermitian matrix, or
    a stack of them, at ``atol``; the message names the largest deviation,
    max |m - m†|."""
    if not _is_square(m):
        raise NotHermitianError(f"{what} of shape {m.shape} is not square")
    dev = float(np.abs(m - dagger(m)).max())
    if not dev <= atol:
        raise NotHermitianError(f"{what} is not Hermitian (max deviation {dev:.3e})")


def _symmetrized(h: np.ndarray) -> np.ndarray:
    return (h + dagger(h)) / 2.0


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`eigh` of a complex matrix, or stack, unchecked."""
    return np.linalg.eigh(_symmetrized(h))


def eigh(h: np.ndarray, atol: float = HERMITIAN_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or of each matrix of a stack.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending along the last axis
    and ``h = V diag(w) V†`` per member. Raises :class:`NotHermitianError`
    if the symmetry check fails at ``atol`` on any member.
    """
    h = np.asarray(h, dtype=complex)
    check_hermitian(h, atol)
    return _eigh(h)


def _eigenvalues(h: np.ndarray) -> np.ndarray:
    """:func:`eigenvalues` of a complex matrix, or stack, unchecked."""
    if h.shape[-1] > _EIGENVECTORS_UP_TO:
        return np.linalg.eigvalsh(_symmetrized(h))
    return _eigh(h)[0]


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of each matrix of a stack.

    Up to dimension 25 they are :func:`eigh`'s, bit for bit; above 25 they
    come from ``eigvalsh`` and no eigenvectors are computed. Raises
    :class:`NotHermitianError` if the symmetry check fails on any member.
    """
    h = np.asarray(h, dtype=complex)
    check_hermitian(h)
    return _eigenvalues(h)


def _built_eigenvalues(h: np.ndarray) -> np.ndarray:
    """:func:`_eigenvalues` of a matrix, or stack, that equals its conjugate
    transpose entry for entry by construction, as the partial transpose of a
    built state does; above dimension 25 it goes to ``eigvalsh`` as it is,
    with no copy."""
    if h.shape[-1] > _EIGENVECTORS_UP_TO:
        return np.linalg.eigvalsh(h)
    return _eigenvalues(h)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values of ``m``; a real matrix is decomposed as it
    is, with no complex cast. Raises :class:`ConvergenceFailureError` if the
    SVD does not converge."""
    m = np.asarray(m)
    if m.size == 0:
        return np.zeros(0)
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"SVD failed to converge: {exc}") from exc


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; equals sum |eigenvalue| for Hermitian input."""
    return float(singular_values(m).sum())


#: Sum of singular values of a matrix unfolding; for matrices this is the
#: trace norm, under the name the Ky Fan criterion is stated with.
ky_fan_norm = trace_norm


def check_psd(w: np.ndarray, atol: float = PSD_ATOL, what: str = "matrix") -> None:
    """Raise :class:`NotPSDError` if an ascending spectrum in ``w``, of a
    matrix or of each member of a stack, starts below ``-atol``."""
    # builtin min: on the one-matrix path a numpy reduction costs more than the check
    lowest = min(w[..., 0].flat)
    if lowest < -atol:
        raise NotPSDError(f"{what} has negative eigenvalue {lowest:.3e}")


def support(w: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """The numerical rank rule: True for each eigenvalue in ``w`` above
    ``rank_tol`` times the largest along the last axis. A spectrum whose
    largest eigenvalue is not positive, or that is empty, keeps nothing."""
    return w > rank_tol * w.max(axis=-1, keepdims=True, initial=0.0)


# the square roots check Hermiticity at the PSD tolerance
_ROOT_ATOL = max(HERMITIAN_ATOL, PSD_ATOL)


def _psd_spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = _eigh(h)
    check_psd(w)
    return w, v


def _sqrt_psd(h: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """:func:`sqrt_psd` of a complex matrix, or stack, with no Hermiticity check."""
    w, v = _psd_spectrum(h)
    root = np.where(support(w, rank_tol), np.sqrt(np.clip(w, 0.0, None)), 0.0)
    return (v * root[..., None, :]) @ dagger(v)


def sqrt_psd(h: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Principal square root of a PSD matrix, or of each matrix of a stack
    (on each member's :func:`support` only: the other eigenvalues are
    dropped)."""
    h = np.asarray(h, dtype=complex)
    check_hermitian(h, _ROOT_ATOL)
    return _sqrt_psd(h, rank_tol)


def _inv_sqrt_psd(h: np.ndarray, rank_tol: float = RANK_TOL, power: float = 1.0) -> np.ndarray:
    """:func:`inv_sqrt_psd` of a complex matrix, or stack, with no Hermiticity check."""
    w, v = _psd_spectrum(h)
    keep = support(w, rank_tol)
    inv = np.zeros_like(w)
    inv[keep] = (1.0 / np.sqrt(w[keep])) ** power
    return (v * inv[..., None, :]) @ dagger(v)


def inv_sqrt_psd(h: np.ndarray, rank_tol: float = RANK_TOL, power: float = 1.0) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix, or of each matrix of a
    stack, on its support, raised to ``power``: ``h^(-power/2)``.

    Eigenvalues off the :func:`support` are treated as zero and projected
    out (their inverse contribution is 0). Raises
    :class:`NotPSDError` if an eigenvalue is below -1e-10. The power is taken
    of ``1/sqrt(w)``, so ``power=1`` is the plain inverse square root bit for bit.
    """
    h = np.asarray(h, dtype=complex)
    check_hermitian(h, _ROOT_ATOL)
    return _inv_sqrt_psd(h, rank_tol, power)
