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
    """A normal form built from the Gamma-block pencil by :func:`normal_form`:
    sum_ij |ii><jj| <phi_j|phi_i> / N, kept with its factor, whose row ii is
    phi_i / sqrt(N) and whose other rows are zero."""


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
    """True when 3N/2 < M < 2N (N <= M), where :func:`normal_form`'s
    necessary condition rules out a normal form of rank at most 2."""
    small, large = sorted((n, m))
    return 3 * small < 2 * large < 4 * small


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


def _normal_form_steps(
    rho: DensityMatrix,
    tol: float = NF_TOL,
    max_iter: int = NF_MAX_ITER,
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
    if rho._factor is not None and g.shape == (n, n, 2):
        phi = _pencil_vectors(g, 1.0 / np.sqrt(rank_tol))
        if phi is not None:
            factor = np.zeros((n * n, 2), dtype=complex)
            factor[:: n + 1] = phi / np.sqrt(n)
            return _PencilForm._trusted(factor @ factor.conj().T, (n, n), factor=factor), 0
    history = [deviation]                # deviation after each completed step
    omega = 1.0
    stalled = 0
    for iteration in range(max_iter):
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
        f"normal form not reached within {max_iter} iterations",
        iterations=max_iter, reason="cap")


def normal_form(
    rho: DensityMatrix,
    tol: float = NF_TOL,
    max_iter: int = NF_MAX_ITER,
    rank_tol: float = numerics.RANK_TOL,
) -> DensityMatrix:
    """Filter a full-local-rank state to maximally mixed marginals.

    Factors rho = G G^dag once (G from a Gamma-block residual's blocks, or by
    diagonalising rho) and alternates the two sides (operator Sinkhorn
    scaling): each step applies F_A = (N rho_A)^(-w/2) to G's first leg,
    recomputes rho_B, and applies F_B = (M rho_B)^(-w/2) to its second leg,
    until both marginals are within ``tol`` (max-entry distance) of I/d. A
    state already within ``tol`` is returned as it is.

    A state that kept a Gamma factor (the residual of a pure 2 x N x N
    state) and has rank 2 on N x N is not filtered: its normal form comes in
    closed form (the pencil route). Its Gram factor's columns g0, g1 are the
    state's Gamma-block pencil. After a unitary mix of the columns (a
    non-unitary one would change the state), g0 is invertible and D = g0^-1
    g1 = V diag(lambda) V^-1; the filters V^-1 g0^-1 and V^T take the state
    to sum_i |ii> (x) (|0> + lambda_i |1>), and rescaling each term gives the
    normal form sum_ij |ii><jj| <phi_j|phi_i> / N with phi_i = (1, lambda_i)
    / |(1, lambda_i)| (Chitambar, Duan and Shi, PRL 101, 140502), returned
    with 0 iterations. The route's guard is that both g0 and V have
    condition number at most 1/sqrt(rank_tol). It runs after the ``tol``
    test and the ``no_normal_form`` rule below, so neither changes. Every
    other state is filtered: dense input, N != M, rank other than 2, a
    singular pencil (det(s g0 + t g1) = 0 for all s, t, as for the four-term
    2x3x3 below) and a pencil that fails the guard (a defective D, or a
    Gamma-factored W + eps|111> with a 3-tangle below about 1.8 rank_tol).

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
    which is the rank of every pure-state residual. Stacking the two Schmidt
    matrices of a rank-2 normal form on N x M (N <= M) into a 2N x M block S
    gives S^dag S = I/M; the complementary projector Q of M S S^dag has rank
    2N - M and its two diagonal N x N blocks must sum to (2 - M/N) I_N,
    which needs 2(2N - M) >= N. So M <= 3N/2 or M >= 2N is necessary (not
    sufficient): random 2x3x5, 2x4x7 and 2x6x10 residuals never reach the
    tolerance, while 2x2x3, 2x3x4, 2x4x6 and 2x6x9 converge. A state of rank
    at most 2 on a shape that breaks the condition is reported as
    ``no_normal_form`` without filtering.

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
    filtering; filtered states just above it approach I/d ever more slowly
    and run to the cap (W + eps|111> does up to a 3-tangle of about 6e-4). The
    four-term 2x3x3 residual stalls at deviation 1/3.
    """
    filtered, _ = _normal_form_steps(rho, tol=tol, max_iter=max_iter, rank_tol=rank_tol)
    return filtered


def _normal_form_svd(rho: DensityMatrix) -> CorrelationSVD:
    """:func:`correlation_svd` of a state from :func:`_normal_form_steps`.

    On a normal form built from the pencil the singular values follow from
    the overlaps of its vectors, with no Bloch decomposition: 2 |<phi_p|phi_q>|
    / N twice for each pair p < q (the factor's rows hold phi_i / sqrt(N)),
    and N - 1 copies of 2/N.
    """
    if not isinstance(rho, _PencilForm):
        return correlation_svd(bloch_decompose(rho))
    n = rho.dims[0]
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
