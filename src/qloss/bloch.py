"""Bloch decomposition, normal-form filtering, and correlation-matrix singular values.

A bipartite N x M density matrix decomposes over the SU(N) and SU(M)
generator bases as

    rho = 1/(NM) I(x)I + 1/(2M) sum_u a_u g_u(x)I + 1/(2N) sum_v b_v I(x)h_v
          + 1/4 sum_uv t_uv g_u(x)h_v

with real local vectors a, b and a real correlation matrix t. The local
vectors vanish exactly for maximally mixed marginals; iterative local
filtering drives any full-local-rank state to that normal form, which is
entangled iff the original state is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotPSDError,
    RankDeficientError,
)
from .states import DensityMatrix
from .su_basis import generators

NF_TOL = 1e-9
NF_MAX_ITER = 500
# filtering steps run unrelaxed before the relaxation factor is chosen; the
# factor is re-estimated every two such windows, and capped
_PROBE_STEPS = 8
_MAX_OMEGA = 1.9
# a window whose per-step rate is at least this does not contract: the
# factor is not raised, and a raised factor is backed off
_FLAT_RATE = 0.999
# a backed-off factor whose excess over 1 would fall below this snaps to 1
_MIN_EXCESS = 0.05
# unitary mixes (c, s) of a Gamma factor's columns g0, g1: the pencil is read
# as D = g0'^-1 g1' with g0' = c g0 + s g1, g1' = -conj(s) g0 + conj(c) g1,
# at the mix whose g0' is best conditioned
_PENCIL_MIXES = ((1.0, 0.0), (0.5 ** 0.5, 0.5 ** 0.5), (0.5 ** 0.5, 0.5 ** 0.5 * 1j),
                 (0.6, 0.8 * np.exp(0.5j)))
#: The notes clause of the criteria that read a normal form built from the pencil.
PENCIL_NOTE = "normal form from the Gamma-block pencil"


def _young(rate: float) -> float:
    """Young's SOR factor 2 / (1 + sqrt(1 - rate)) for an unrelaxed per-step
    rate, capped at ``_MAX_OMEGA``."""
    return min(2.0 / (1.0 + np.sqrt(1.0 - rate)), _MAX_OMEGA)


def _basis_stack(dim: int) -> np.ndarray:
    """Stacked generators for dim >= 2, or an empty stack for a trivial side."""
    if dim < 2:
        return np.zeros((0, dim, dim), dtype=complex)
    return generators(dim).stacked()


@lru_cache(maxsize=None)
def _gathers(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-dimension indices of :func:`bloch_decompose`'s first correlation
    step: the levels (j, k) of each off-diagonal generator and then (k, j),
    as row and column indices; all levels; and the diagonals of the diagonal
    generators."""
    p, q = np.triu_indices(dim, 1)
    rows, cols = np.concatenate([p, q]), np.concatenate([q, p])
    levels = np.arange(dim)
    diag = _basis_stack(dim)[dim * (dim - 1):, levels, levels]
    for arr in (rows, cols, levels, diag):
        arr.setflags(write=False)
    return rows, cols, levels, diag


@dataclass(frozen=True)
class BlochForm:
    """Local Bloch vectors and correlation matrix of a bipartite state."""

    dims: tuple[int, int]
    a: np.ndarray          # length N^2 - 1
    b: np.ndarray          # length M^2 - 1
    t: np.ndarray          # (N^2 - 1) x (M^2 - 1) correlation matrix


@dataclass(frozen=True)
class CorrelationSVD:
    """Singular values of a correlation matrix."""

    dims: tuple[int, int]
    tau: np.ndarray        # descending, nonnegative
    notes: str = ""        # how the normal form was reached, when not by filtering


class _PencilForm(DensityMatrix):
    """A normal form that :func:`normal_form` builds from the pencil of a
    rank-2 state, kept with its factor. On N x N it is sum_ij |ii><jj|
    <phi_j|phi_i> / N (factor row ii is phi_i / sqrt(N), other rows zero);
    on N != M it is the balanced state of :func:`_balanced_form`."""


def bloch_decompose(rho: DensityMatrix) -> BlochForm:
    """Extract (a, b, t) via generator traces.

    a_u = Tr[rho (g_u (x) I)], b_v = Tr[rho (I (x) h_v)],
    t_uv = Tr[rho (g_u (x) h_v)]; all are real for Hermitian input.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatchError(f"Bloch decomposition needs bipartite dims, got {rho.dims}")
    n, m = rho.dims
    gl = _basis_stack(n)
    gr = _basis_stack(m)
    tensor = rho.matrix.reshape(n, m, n, m)
    a = np.einsum("jmkm,akj->a", tensor, gl).real
    b = np.einsum("jmjn,bnm->b", tensor, gr).real
    # t_ab = sum gl[a,k,j] tensor[j,m,k,n] gr[b,n,m], in two steps. The first
    # gathers the blocks x[k,j] = tensor[j,:,k,:]^T: an off-diagonal generator
    # has two nonzero entries, so its row is a sum of two blocks. This keeps
    # t exactly zero on small I/d, where a dense matmul leaves ~1e-19. With
    # the blocks transposed, the second step is a matmul with a view of gr,
    # not a copy.
    rows, cols, levels, diag = _gathers(n)
    x = tensor.transpose(2, 0, 3, 1)
    pairs = x[rows, cols]
    off = len(rows) // 2
    upper, lower = pairs[:off], pairs[off:]
    left = np.empty((len(gl), m, m), dtype=complex)
    np.add(upper, lower, out=left[:off])
    np.multiply(1j, lower - upper, out=left[off:2 * off])
    np.einsum("lk,knm->lnm", diag, x[levels, levels], out=left[2 * off:])
    t = (left.reshape(len(gl), m * m) @ gr.reshape(len(gr), m * m).T).real
    return BlochForm(dims=(n, m), a=a, b=b, t=t)


def reconstruct(bf: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from its Bloch form."""
    n, m = bf.dims
    gl = _basis_stack(n)
    gr = _basis_stack(m)
    rho = np.eye(n * m, dtype=complex) / (n * m)
    if len(gl):
        rho += np.kron(np.einsum("a,aij->ij", bf.a, gl), np.eye(m)) / (2 * m)
    if len(gr):
        rho += np.kron(np.eye(n), np.einsum("b,bij->ij", bf.b, gr)) / (2 * n)
    if len(gl) and len(gr):
        corr = np.einsum("ab,aij,bkl->ikjl", bf.t, gl, gr).reshape(n * m, n * m)
        rho += corr / 4.0
    return rho


def _no_rank2_normal_form(n: int, m: int) -> bool:
    """True when N != M and |M - N| does not divide min(N, M), where King's
    criterion rules out a normal form of rank at most 2 (see
    :func:`normal_form`)."""
    small, large = sorted((n, m))
    return small < large and small % (large - small) != 0


def _three_tangle(g: np.ndarray) -> float:
    """3-tangle of the purification sum_k |k> (x) g[:, :, k] of a rank-2
    two-qubit state G G^dag, with G of shape (2, 2, 2): 4 |b^2 - 4ac| / Tr^2
    for det(s g0 + t g1) = a s^2 + b st + c t^2."""
    def det(x):
        return x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]
    g0, g1 = g[..., 0], g[..., 1]
    a, c = det(g0), det(g1)
    b = det(g0 + g1) - a - c
    return 4.0 * abs(b * b - 4.0 * a * c) / float(np.vdot(g, g).real) ** 2


def _no_normal_form(g: np.ndarray, rank_tol: float) -> bool:
    """True when no normal form of the state G G^dag can be reached, with G
    of shape (n, m, rank): rank at most 2 on a shape where
    :func:`_no_rank2_normal_form` holds, or a rank-2 two-qubit state of the
    W class (3-tangle at most ``rank_tol``). See :func:`normal_form`."""
    n, m, rank = g.shape
    if rank > 2:
        return False
    if _no_rank2_normal_form(n, m):
        return True
    return g.shape == (2, 2, 2) and _three_tangle(g) <= rank_tol


def _pencil_vectors(g: np.ndarray, bound: float) -> np.ndarray | None:
    """Rows phi_i = (1, lambda_i) / |(1, lambda_i)| for the eigenvalues
    lambda_i of D = g0^-1 g1, the pencil of the two columns of the (N, N, 2)
    factor ``g`` after the best conditioned of ``_PENCIL_MIXES``; None unless
    g0 and D's eigenvector matrix V both have condition number at most
    ``bound`` (a singular pencil fails the first, a defective one the second)."""
    c, s = np.array(_PENCIL_MIXES).T
    g0 = c[:, None, None] * g[..., 0] + s[:, None, None] * g[..., 1]
    conds = np.linalg.cond(g0)
    best = int(np.argmin(conds))
    if not conds[best] <= bound:
        return None
    g1 = -np.conj(s[best]) * g[..., 0] + np.conj(c[best]) * g[..., 1]
    lam, v = np.linalg.eig(np.linalg.solve(g0[best], g1))
    if not np.linalg.cond(v) <= bound:
        return None
    phi = np.stack([np.ones_like(lam), lam], axis=1)
    return phi / np.linalg.norm(phi, axis=1, keepdims=True)


def _l_eps_pencil(g: np.ndarray, bound: float) -> bool:
    """True when the pencil g0 + t g1 of the (N, M, 2) factor ``g``, N < M
    with k = M - N dividing N, is k copies of L_eps, eps = N / k: the square
    (eps + 1) N x eps M block-Toeplitz matrix of the pencil on vector
    polynomials of degree eps - 1 (g0 at block (d, d), g1 at block (d + 1,
    d)) has condition number at most ``bound``. See :func:`normal_form`."""
    n, m, _ = g.shape
    eps = n // (m - n)
    toeplitz = np.zeros(((eps + 1) * n, eps * m), dtype=complex)
    for d in range(eps):
        toeplitz[d * n:(d + 1) * n, d * m:(d + 1) * m] = g[..., 0]
        toeplitz[(d + 1) * n:(d + 2) * n, d * m:(d + 1) * m] = g[..., 1]
    return bool(np.linalg.cond(toeplitz) <= bound)


@lru_cache(maxsize=None)
def _balanced_form(n: int, m: int) -> tuple[_PencilForm, CorrelationSVD]:
    """The normal form of every state on N x M, N != M, whose pencil is k =
    |M - N| copies of L_eps (eps = min(N, M) / k), with its correlation
    singular values; built on the first call for each shape.

    Block b of the factor holds g0 = sum_i a_i |i, i> and g1 = sum_i b_i |i,
    i+1> on rows b eps + i and columns b (eps + 1) + i (read transposed when
    N > M), with a_i^2 = (eps - i) / (k eps (eps + 1)) and b_i^2 = (i + 1) /
    (k eps (eps + 1)): each row weighs 1/N, each column 1/M, and the trace is 1.
    """
    small, large = sorted((n, m))
    k = large - small
    eps = small // k
    norm = k * eps * (eps + 1)
    rows = np.arange(small)
    level = rows % eps
    cols = rows + rows // eps
    g = np.zeros((small, large, 2), dtype=complex)
    g[rows, cols, 0] = np.sqrt((eps - level) / norm)
    g[rows, cols + 1, 1] = np.sqrt((level + 1) / norm)
    factor = (g if n < m else g.transpose(1, 0, 2)).reshape(n * m, 2)
    factor.setflags(write=False)
    sigma = _PencilForm._wrap(factor @ factor.conj().T, (n, m), factor)
    tau = correlation_svd(bloch_decompose(sigma)).tau
    return sigma, CorrelationSVD(dims=(n, m), tau=tau, notes=PENCIL_NOTE)


def _normal_form_steps(
    rho: DensityMatrix,
    tol: float = NF_TOL,
    rank_tol: float = numerics.RANK_TOL,
) -> tuple[DensityMatrix, int]:
    """Filtering loop; returns the filtered state and the iteration count (0
    on the pencil route, see :func:`normal_form`)."""
    if len(rho.dims) != 2:
        raise DimensionMismatchError(f"normal form needs bipartite dims, got {rho.dims}")
    n, m = rho.dims
    tensor = rho.matrix.reshape(n, m, n, m)
    rho_a, rho_b = np.einsum("jmkm->jk", tensor), np.einsum("jmjn->mn", tensor)
    for side, dim in ((rho_a, n), (rho_b, m)):
        w = np.linalg.eigvalsh((side + side.conj().T) / 2.0)
        if int(numerics.support(w, rank_tol).sum()) < dim:
            raise RankDeficientError(
                f"marginal of dimension {dim} is rank deficient; reduce the support first")
    eye_a = np.eye(n) / n
    eye_b = np.eye(m) / m
    deviation = max(float(np.abs(rho_a - eye_a).max()), float(np.abs(rho_b - eye_b).max()))
    if deviation <= tol:
        return rho, 0
    # rho = G G^dag with G of shape (n, m, rank); the filters act on G's legs,
    # so every iterate is PSD and no step touches an NM x NM matrix
    g = rho._gram_factor(rank_tol).reshape(n, m, -1)
    if _no_normal_form(g, rank_tol):
        raise NoConvergenceError(
            f"no normal form of rank {g.shape[2]} is reachable on {n} x {m}",
            iterations=0, reason="no_normal_form")
    if g.shape[2] == 2:
        bound = 1.0 / np.sqrt(rank_tol)
        if n == m:
            phi = _pencil_vectors(g, bound)
            if phi is not None:
                factor = np.zeros((n * n, 2), dtype=complex)
                factor[:: n + 1] = phi / np.sqrt(n)
                return _PencilForm._wrap(factor @ factor.conj().T, (n, n), factor), 0
        elif _l_eps_pencil(g if n < m else g.transpose(1, 0, 2), bound):
            return _balanced_form(n, m)[0], 0
    history = [deviation]                # deviation after each completed step
    omega = 1.0
    stalled = 0
    for iteration in range(NF_MAX_ITER):
        if deviation <= tol:
            flat = g.reshape(n * m, -1)
            return DensityMatrix._trusted(flat @ flat.conj().T, (n, m)), iteration
        if iteration == _PROBE_STEPS:
            # Young's SOR rule, with the unrelaxed rate measured over the probe
            half = _PROBE_STEPS // 2
            rate = (deviation / history[half]) ** (1.0 / half)
            if rate < _FLAT_RATE:
                omega = _young(rate)
        elif iteration > 0 and iteration % (2 * _PROBE_STEPS) == 0:
            # the rate mu over the last window, all of it at this omega
            rate = (deviation / history[iteration - _PROBE_STEPS]) ** (1.0 / _PROBE_STEPS)
            if rate >= _FLAT_RATE:
                excess = (omega - 1.0) / 2.0
                omega = 1.0 + excess if excess >= _MIN_EXCESS else 1.0
            else:
                # Young's relation mu = f(lambda, omega), solved for the
                # unrelaxed rate lambda; omega is only ever raised here
                unrelaxed = min((rate + omega - 1.0) ** 2 / (rate * omega ** 2), 1.0)
                omega = max(omega, _young(unrelaxed))
        # one side per half-step, F_B taken from the state F_A left behind
        # (operator Sinkhorn scaling); applying both filters of one state at
        # once falls into a 2-cycle on rank-2 N x N residuals
        try:
            g_a = numerics.inv_sqrt_psd(n * rho_a, rank_tol, omega) @ g.reshape(n, -1)
            g_b = g_a.reshape(n, m, -1).transpose(1, 0, 2).reshape(m, -1)
            g_b = numerics.inv_sqrt_psd(m * (g_b @ g_b.conj().T), rank_tol, omega) @ g_b
        except NotPSDError as exc:
            # divergent trajectories on rank-deficient states amplify noise
            # until a marginal leaves the PSD cone: a filtering breakdown
            raise NoConvergenceError(
                f"normal-form filtering broke down numerically after {iteration} "
                f"iterations ({exc})", iterations=iteration, reason="breakdown") from exc
        trace = float(np.vdot(g_b, g_b).real)
        if not np.isfinite(trace) or trace <= 1e-12:
            raise NoConvergenceError(
                f"normal-form filtering collapsed the state after {iteration} iterations",
                iterations=iteration, reason="breakdown")
        g_b = g_b / np.sqrt(trace)
        g = g_b.reshape(m, n, -1).transpose(1, 0, 2)
        g_a = g.reshape(n, -1)
        prev_a, prev_b = rho_a, rho_b
        rho_a, rho_b = g_a @ g_a.conj().T, g_b @ g_b.conj().T
        change = max(float(np.abs(rho_a - prev_a).max()), float(np.abs(rho_b - prev_b).max()))
        # the stop criterion sees only the marginals: once they are frozen
        # above tol the iteration can never succeed, so report early
        stalled = stalled + 1 if change < 1e-13 else 0
        if stalled >= 30:
            raise NoConvergenceError(
                f"normal-form filtering stalled after {iteration + 1} iterations "
                f"(marginals frozen at deviation {deviation:.3e})",
                iterations=iteration + 1, reason="stalled")
        deviation = max(
            float(np.abs(rho_a - eye_a).max()), float(np.abs(rho_b - eye_b).max()))
        history.append(deviation)
    raise NoConvergenceError(
        f"normal form not reached within {NF_MAX_ITER} iterations",
        iterations=NF_MAX_ITER, reason="cap")


def normal_form(
    rho: DensityMatrix,
    tol: float = NF_TOL,
    rank_tol: float = numerics.RANK_TOL,
) -> DensityMatrix:
    """Filter a full-local-rank state to maximally mixed marginals.

    Factors rho = G G^dag once (G from a Gamma-block residual's blocks, or by
    diagonalising rho) and alternates the two sides (operator Sinkhorn
    scaling): each step applies F_A = (N rho_A)^(-w/2) to G's first leg,
    recomputes rho_B, and applies F_B = (M rho_B)^(-w/2) to its second leg,
    until both marginals are within ``tol`` (max-entry distance) of I/d. A
    state already within ``tol`` is returned as it is.

    A state of rank 2, from a ket or a dense matrix alike, is not filtered
    when its pencil passes a guard: its normal form comes in closed form
    (the pencil route) and is returned with 0 iterations. A qubit purifies
    it, so its Gram factor's columns g0, g1 are Gamma blocks up to a unitary
    mix: the Gamma-block pencil g0 + t g1, an N x M matrix pencil. The route
    runs after the ``tol`` test and the ``no_normal_form`` rule below, so
    neither changes.

    On N x N, after a unitary mix of the columns (a non-unitary one would
    change the state), g0 is invertible and D = g0^-1 g1 = V diag(lambda)
    V^-1; the filters V^-1 g0^-1 and V^T take the state to sum_i |ii> (x)
    (|0> + lambda_i |1>), and rescaling each term gives the normal form
    sum_ij |ii><jj| <phi_j|phi_i> / N with phi_i = (1, lambda_i) / |(1,
    lambda_i)| (Chitambar, Duan and Shi, PRL 101, 140502). The guard is that
    both g0 and V have condition number at most 1/sqrt(rank_tol).

    On N < M the rule below leaves only k = M - N dividing N; let eps = N /
    k. A minimal index is a degree in the pencil's Kronecker canonical form
    (KCF): blocks L_e = [I | 0] + t [0 | I] of size e x (e + 1), their
    transposes L_e^T and a regular part. Let T be the square (eps + 1) N x
    eps M block-Toeplitz matrix with g0 at block (d, d) and g1 at block
    (d + 1, d), the pencil acting on vector polynomials of degree eps - 1.
    If T is invertible, no L_e has e < eps, since its kernel polynomial of
    degree e would lie in T's kernel. Counting then forces the KCF: with
    blocks L_{e_i}, L^T_{h_j} and a regular part of size r, N = sum e_i +
    sum (h_j + 1) + r and M = sum (e_i + 1) + sum h_j + r, so there are
    k more L blocks than L^T blocks, and N >= sum e_i >= k eps = N makes
    every inequality an equality: exactly k blocks L_eps, no L^T and no
    regular part. The filters that take the pencil to its KCF, then filters
    that are diagonal in each block, scale each block's g0 = sum_i |i, i>
    and g1 = sum_i |i, i+1> to a_i and b_i with |a_i|^2 = (eps - i) / (k eps
    (eps + 1)) and |b_i|^2 = (i + 1) / (k eps (eps + 1)), whose rows weigh
    1/N and whose columns weigh 1/M: the balanced state, which depends only
    on (N, M) and is built once per shape (normal forms of one filter orbit
    agree up to local unitaries, which keep the correlation singular
    values). The guard is cond(T) <= 1/sqrt(rank_tol). An N > M state is
    read transposed.

    Every other state is filtered: rank other than 2, a singular N x N
    pencil (det(s g0 + t g1) = 0 for all s, t, as for the four-term 2x3x3
    below) and a pencil that fails its guard (a defective D; W + eps|111>
    with a 3-tangle below about 1.8 rank_tol; an N < M pencil with a minimal
    index below eps, such as L_1 + L_3 on 4 x 6, which has no normal form
    and stalls).

    The relaxation factor w adapts as the run goes (over-relaxed Sinkhorn
    scaling, Thibault et al., arXiv:1711.01851). The first 8 steps are a
    probe at w = 1, the plain scaling, so a state filtered within 8 steps
    comes out exactly as without relaxation. At step 8, w is set by Young's
    over-relaxation rule w = 2 / (1 + sqrt(1 - r)), capped at 1.9, where r
    is the per-step contraction of the deviation over steps 4 to 8; if r is
    0.999 or more the deviation is not contracting and w stays 1. Every 16
    steps after that, w is re-estimated from the per-step rate mu over the
    last 8 steps, all of them taken at the current w. If mu < 0.999, Young's
    relation between the plain and the relaxed rates (Lehmann, von Renesse,
    Sambale and Uschmajew, Optim. Lett. 2022) is inverted for the unrelaxed
    rate, lambda = (mu + w - 1)^2 / (mu w^2), and w is raised to Young's
    rule at lambda if that is larger; a probe that read the rate too early
    is corrected this way. If mu >= 0.999, w backs off: its excess over 1
    halves, and snaps to exactly 1 once it would fall below 0.05. Raising w
    perturbs the deviation for a few steps, so no single step switches the
    relaxation off. The 0.999 threshold and the snap keep frozen marginals
    (where mu = 1) at w = 1, so the stall detector still sees them. Any w
    leaves the fixed point (F = I exactly when the marginal is I/d) and the
    normal form the same, and every iterate is G G^dag, so it stays PSD.

    Raises :class:`RankDeficientError` if a marginal is rank deficient and
    :class:`NoConvergenceError` if the iteration cannot reach the normal
    form; its ``reason`` is ``cap``, ``stalled`` (marginals frozen above
    ``tol`` for 30 steps), ``breakdown`` (a marginal left the PSD cone or
    the state collapsed) or ``no_normal_form`` (the shape has none of the
    state's rank, or the state is a W-class two-qubit state, see below;
    raised before the first step). Callers may fall back to analyzing the
    unfiltered state (the filtering cannot create or destroy entanglement,
    so nothing is lost except the filtered-only criteria).

    Filtering keeps the rank, and some shapes have no normal form of rank 2,
    which is the rank of every pure-state residual. The pencil of a rank-2
    state is a representation of the Kronecker quiver (two arrows from C^M
    to C^N) with dimension vector (N, M), the filters act on it by change of
    basis, and maximally mixed marginals are a zero of the moment map. By
    King's criterion (A. D. King, Q. J. Math. 45, 515 (1994)) the filter
    orbit holds a normal form exactly when the representation is
    polystable: a direct sum of stable representations whose dimension
    vectors are all proportional to (N, M). A stable representation is a
    brick, so its dimension vector (x, y) is a Schur root, and the Kronecker
    quiver's roots satisfy (x - y)^2 <= 1: (n, n + 1), (n + 1, n) or (1, 1).
    For N < M only (eps, eps + 1) with eps / (eps + 1) = N / M is
    proportional, so the state has a normal form exactly when k = M - N
    divides N and the pencil is k copies of the stable L_eps, eps = N / k,
    the pencil route's case. On N = M only (1, 1) is proportional: the
    polystable pencils are the diagonalisable regular ones that the N x N
    route takes, and a W-class or singular pencil is not one. This is
    necessary and sufficient for rank 2. A state of rank at most 2 on N x M,
    N != M, with |M - N| not dividing min(N, M) is reported as
    ``no_normal_form`` without filtering: 2x3x5, 2x4x7, 2x5x7, 2x7x9 and
    2x7x10 residuals among others (this contains 3N/2 < M < 2N, where N /
    (M - N) lies strictly between 1 and 2).

    Special states fail too. A rank-2 two-qubit state G G^dag is W-class
    when its purification sum_k |k> (x) g_k has zero 3-tangle 4 |b^2 - 4ac|
    (Coffman, Kundu and Wootters, PRA 61, 052306), where det(s g_0 + t g_1)
    = a s^2 + b st + c t^2; the value is invariant under local unitaries and
    under unitary mixing of the columns g_k. Such a state has no normal form
    that finite filters reach (Verstraete, Dehaene and De Moor, PRA 68,
    012103): a rank-2 two-qubit normal form is Bell-diagonal, and the span
    of any two Bell states holds exactly two product vectors, while a
    W-class range (a double root of the pencil) holds exactly one, and
    invertible filters preserve that count. A rank-2 two-qubit state with a
    3-tangle at most ``rank_tol`` is reported as ``no_normal_form`` without
    filtering. States just above it take the pencil route, except in a guard
    band up to about 1.8 rank_tol, where filtering runs to the cap (it would
    up to a 3-tangle of about 6e-4 along W + eps|111>). The four-term 2x3x3
    residual stalls at deviation 1/3.
    """
    filtered, _ = _normal_form_steps(rho, tol=tol, rank_tol=rank_tol)
    return filtered


def _normal_form_svd(rho: DensityMatrix) -> CorrelationSVD:
    """:func:`correlation_svd` of a state from :func:`_normal_form_steps`.

    On an N x N normal form built from the pencil the singular values follow
    from the overlaps of its vectors, with no Bloch decomposition: 2
    |<phi_p|phi_q>| / N twice for each pair p < q (the factor's rows hold
    phi_i / sqrt(N)), and N - 1 copies of 2/N. On N != M they are the
    balanced state's, computed once per shape.
    """
    if not isinstance(rho, _PencilForm):
        return correlation_svd(bloch_decompose(rho))
    n, m = rho.dims
    if n != m:
        return _balanced_form(n, m)[1]
    rows = rho._factor[:: n + 1]
    pairs = 2.0 * np.abs(rows.conj() @ rows.T)[np.triu_indices(n, 1)]
    tau = np.concatenate([pairs, pairs, np.full(n - 1, 2.0 / n)])
    return CorrelationSVD(dims=rho.dims, tau=np.sort(tau)[::-1], notes=PENCIL_NOTE)


def correlation_svd(bf: BlochForm) -> CorrelationSVD:
    """Singular values of the real correlation matrix.

    The one decomposition of t: the Ky Fan and length-bound criteria both
    read the result.
    """
    return CorrelationSVD(dims=bf.dims, tau=numerics.singular_values(bf.t))
