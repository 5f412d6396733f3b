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
from functools import cached_property, lru_cache

import numpy as np

from . import numerics
from .errors import NoConvergenceError, NotPSDError, RankDeficientError
from .states import DensityMatrix, _bipartite_dims
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
# unitary mixes (c, s) of a Gamma factor's columns, Moebius maps of t: the pencil is read
# as g0' + t g1', g0' = c g0 + s g1, g1' = -conj(s) g0 + conj(c) g1, at the best-conditioned g0'
_PENCIL_MIXES = np.array([(1.0, 0.0), (0.5 ** 0.5, 0.5 ** 0.5), (0.5 ** 0.5, 0.5 ** 0.5 * 1j),
                          (0.6, 0.8 * np.exp(0.5j))])
# most rows of a block-Toeplitz matrix _kronecker decomposes (above, the staircase costs less)
_TOEPLITZ_UP_TO = 64
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
    rank-2 state, kept as its factor F; its matrix F F^dag is built when
    first read. On N x N it is sum_ij |ii><jj| <phi_j|phi_i> / N (factor row
    ii is phi_i / sqrt(N), other rows zero); on N != M it is the balanced
    state of :func:`_balanced_form`."""

    def __init__(self, dims: tuple[int, int], factor: np.ndarray):
        vars(self).update(dims=dims, _factor=factor)

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = self._factor @ self._factor.conj().T
        mat.setflags(write=False)
        return mat


def bloch_decompose(rho: DensityMatrix) -> BlochForm:
    """Extract (a, b, t) via generator traces.

    a_u = Tr[rho (g_u (x) I)], b_v = Tr[rho (I (x) h_v)],
    t_uv = Tr[rho (g_u (x) h_v)]; all are real for Hermitian input.
    """
    n, m = _bipartite_dims(rho, "Bloch decomposition")
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


@dataclass(frozen=True)
class _Kronecker:
    """A pencil's Kronecker canonical form up to eigenvalues: the ascending
    minimal indices e of its blocks L_e = [I | 0] + t [0 | I] (e x (e + 1),
    ``right``) and L_e^T (``left``), its regular part's size and whether that
    has a Jordan block, and the rows phi_i of :func:`normal_form` if it is a
    diagonalisable regular N x N pencil (else None)."""

    right: tuple[int, ...]
    left: tuple[int, ...]
    regular: int
    jordan: bool
    phi: np.ndarray | None = None

    @property
    def polystable(self) -> bool:
        """Whether the pencil has a normal form (see :func:`normal_form`)."""
        if self.regular:
            return self.phi is not None
        return len(set(self.right + self.left)) == 1 and not (self.right and self.left)

    def __str__(self) -> str:
        parts = [f"L{e}" for e in self.right] + [f"L{e}^T" for e in self.left]
        if self.regular:
            jordan = " with a Jordan block" if self.jordan else ""
            parts.append(f"regular {self.regular} x {self.regular}{jordan}")
        singular = self.right and len(self.right) == len(self.left)
        return " + ".join(parts) + (" (singular pencil)" if singular else "")


def _staircase(ab: np.ndarray, cut: float) -> tuple[tuple[int, ...], bool, np.ndarray]:
    """Van Dooren's staircase (Linear Algebra Appl. 27, 103 (1979)) on ab[0] +
    t ab[1]: its L_e blocks' ascending indices, whether t = 0 has a Jordan
    block, and the pencil left, with ab[0] of full column rank. Step i keeps
    the complements of ker ab[0] (dimension k_i) and of ab[1]'s range on it
    (rank r_i, counting singular values above ``cut``): k_i - r_i blocks L_i
    end there, and t = 0 has r_i - k_(i+1) Jordan blocks of size i + 1."""
    indices, jordan, step, last = [], False, 0, 0
    while ab.shape[2]:
        _, s, vh = np.linalg.svd(ab[0])
        rank = int(np.count_nonzero(s > cut))
        kernel = ab.shape[2] - rank
        if not kernel:
            break
        u, s, _ = np.linalg.svd(ab[1] @ vh[rank:].conj().T)
        r = int(np.count_nonzero(s > cut))
        jordan |= step > 1 and last > kernel
        indices += [step] * (kernel - r)
        step, last = step + 1, r
        ab = u[:, r:].conj().T @ ab @ vh[:rank].conj().T
    return tuple(indices), jordan or (step > 1 and last > 0), ab


def _toeplitz_full_rank(h: np.ndarray, d: int, root: float) -> bool:
    """Whether every singular value of the (d + 2) N x (d + 1) M matrix of the
    pencil h0 + t h1 on vector polynomials of degree d (h0 at block (i, i),
    h1 at block (i + 1, i)) is above ``root`` times the largest."""
    n, m, _ = h.shape
    i = np.arange(d + 1)
    toeplitz = np.zeros((d + 2, n, d + 1, m), dtype=complex)
    toeplitz[i, :, i], toeplitz[i + 1, :, i] = h[..., 0], h[..., 1]
    s = np.linalg.svd(toeplitz.reshape((d + 2) * n, (d + 1) * m), compute_uv=False)
    return bool(s[-1] > root * s[0])


def _kronecker(g: np.ndarray, rank_tol: float) -> _Kronecker | None:
    """The Kronecker structure of the pencil g0 + t g1 of a Gram factor ``g``
    of shape (N, M, 2); None for another rank.

    A rank counts the singular values above sqrt(rank_tol) times the
    largest, that of the best mixed g0' of ``_PENCIL_MIXES``. On N x N a
    full-rank g0' leaves no L block. On N = q k + r < M = N + k, small
    matrices settle the generic (k - r) L_q + r L_(q+1): full column rank
    at degree q - 1 leaves no L_e with e < q, full row rank at degree q (if
    r > 0) leaves k - r blocks L_q, and counting does the rest (N > M is
    read transposed). Else :func:`_staircase` gives the right minimal
    indices, and on the conjugate transpose of what it leaves the left
    ones; the regular part left has a Jordan block when g0'^-1 g1' has
    rank-deficient eigenvectors.
    """
    n, m, rank = g.shape
    if rank != 2:
        return None
    root = np.sqrt(rank_tol)
    small, k = min(n, m), abs(m - n)
    q, r = divmod(small, k) if k else (0, 0)
    if k and (q + 1 + (r > 0)) * small <= _TOEPLITZ_UP_TO:
        h = g if n < m else g.transpose(1, 0, 2)
        if all(_toeplitz_full_rank(h, d, root) for d in [q - 1] * (q > 0) + [q] * (r > 0)):
            blocks = (q,) * (k - r) + (q + 1,) * r
            return _Kronecker(blocks, (), 0, False) if n < m else _Kronecker((), blocks, 0, False)
    c, t = _PENCIL_MIXES.T
    mixed = c[:, None, None] * g[..., 0] + t[:, None, None] * g[..., 1]
    s = np.linalg.svd(mixed, compute_uv=False)
    with np.errstate(divide="ignore"):
        best = int(np.argmin(s[:, 0] / s[:, -1]))
    a, b = mixed[best], -np.conj(t[best]) * g[..., 0] + np.conj(c[best]) * g[..., 1]
    right, left, jordan = (), (), False
    if not (n == m and s[best, -1] > root * s[best, 0]):
        cut = root * s[best, 0]
        right, jordan, ab = _staircase(np.stack([a, b]), cut)
        left, _, ab = _staircase(ab.conj().transpose(0, 2, 1), cut)
        a, b = ab.conj().transpose(0, 2, 1)
    regular, size, phi = n - sum(right) - sum(left) - len(left), a.shape[0], None
    if size and size == a.shape[1]:
        lam, v = np.linalg.eig(np.linalg.solve(a, b))
        s = np.linalg.svd(v, compute_uv=False)
        jordan = jordan or not s[-1] > root * s[0]
        if not (right or left or jordan):
            # an eigenvalue the staircase took off at t = 0 has the row (0, 1)
            phi = np.zeros((n, 2), dtype=complex)
            phi[:size, 0], phi[:size, 1], phi[size:, 1] = 1.0, lam, 1.0
            phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    return _Kronecker(right, left, regular, jordan, phi)


@lru_cache(maxsize=None)
def _balanced_form(n: int, m: int) -> tuple[_PencilForm, CorrelationSVD]:
    """The normal form of every state on N x M, N != M, whose pencil is k =
    |M - N| copies of L_eps (eps = min(N, M) / k), with its correlation
    singular values; built on the first call for each shape (the filters
    to the KCF, then diagonal ones in each block, reach it).

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
    sigma = _PencilForm((n, m), factor)
    tau = correlation_svd(bloch_decompose(sigma)).tau
    return sigma, CorrelationSVD(dims=(n, m), tau=tau, notes=PENCIL_NOTE)


def _normal_form_steps(
    rho: DensityMatrix,
    tol: float = NF_TOL,
    rank_tol: float = numerics.RANK_TOL,
) -> tuple[DensityMatrix, int]:
    """Filtering loop; returns the filtered state and the iteration count (0
    on the pencil route, see :func:`normal_form`)."""
    n, m = _bipartite_dims(rho, "normal form")
    # the marginals and their spectra, as reduce_support found them
    (rho_a, w_a, _), (rho_b, w_b, _) = rho._local_spectra()
    for w in (w_a, w_b):
        if not numerics.support(w, rank_tol).all():
            raise RankDeficientError(f"marginal of dimension {w.shape[-1]} is rank "
                                     "deficient; reduce the support first")
    eye_a, eye_b = np.eye(n) / n, np.eye(m) / m
    deviation = max(float(np.abs(rho_a - eye_a).max()), float(np.abs(rho_b - eye_b).max()))
    if deviation <= tol:
        return rho, 0
    # rho = G G^dag with G of shape (n, m, rank); the filters act on G's legs,
    # so every iterate is PSD and no step touches an NM x NM matrix
    g = rho._gram_factor(rank_tol).reshape(n, m, -1)
    pencil = _kronecker(g, rank_tol)
    if pencil is not None:
        if not pencil.polystable:
            raise NoConvergenceError(
                f"no normal form of rank 2 is reachable on {n} x {m}: its pencil is {pencil}",
                iterations=0, reason="no_normal_form")
        if n != m:
            return _balanced_form(n, m)[0], 0
        factor = np.zeros((n * n, 2), dtype=complex)
        factor[:: n + 1] = pencil.phi / np.sqrt(n)
        return _PencilForm((n, n), factor), 0
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
            g_a = numerics._inv_sqrt_psd(n * rho_a, rank_tol, omega) @ g.reshape(n, -1)
            g_b = g_a.reshape(n, m, -1).transpose(1, 0, 2).reshape(m, -1)
            g_b = numerics._inv_sqrt_psd(m * (g_b @ g_b.conj().T), rank_tol, omega) @ g_b
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

    Filtering serves every rank but 2. A state of rank 2, from a ket or a
    dense matrix alike, gets its normal form in closed form (the pencil
    route), with 0 iterations, or has none. A qubit purifies it, so its Gram
    factor's columns g0, g1 are Gamma blocks up to a unitary mix: the
    Gamma-block pencil g0 + t g1, an N x M matrix pencil and a
    representation of the Kronecker quiver (two arrows from C^M to C^N) of
    dimension vector (N, M). The filters act on it by change of basis, and
    maximally mixed marginals are a zero of the moment map, so by King's
    criterion (A. D. King, Q. J. Math. 45, 515 (1994)) the filter orbit
    holds a normal form exactly when the pencil is polystable: a direct sum
    of stable representations whose dimension vectors are proportional to
    (N, M). A stable representation is a brick, so its dimension vector (x,
    y) is a Schur root, (n, n + 1), (n + 1, n) or (1, 1). On N = M the
    polystable pencils are the diagonalisable regular ones. On N < M, k = M
    - N divides N and the pencil is k copies of the stable L_eps, eps = N /
    k, whose normal form is that of :func:`_balanced_form` (N > M is read
    transposed). After the ``tol`` test :func:`_kronecker` reads the
    pencil's Kronecker canonical form (KCF); any other rank-2 state is
    ``no_normal_form`` before the first step, with its KCF in the message:
    W-class two-qubit states (a Jordan block), the four-term 2x3x3 residual
    (L_1 + L_1^T), and every state on 3 x 5 or another shape where |M - N|
    does not divide min(N, M).

    On N x N, after a unitary mix of the columns (a non-unitary one would
    change the state), g0 is invertible and D = g0^-1 g1 = V diag(lambda)
    V^-1; the filters V^-1 g0^-1 and V^T take the state to sum_i |ii> (x)
    (|0> + lambda_i |1>), and rescaling each term gives the normal form
    sum_ij |ii><jj| <phi_j|phi_i> / N with phi_i = (1, lambda_i) / |(1,
    lambda_i)| (Chitambar, Duan and Shi, PRL 101, 140502).

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
    the state collapsed) or ``no_normal_form`` (a rank-2 state whose pencil
    is not polystable, raised before the first step). Callers may fall back
    to analyzing the unfiltered state (the filtering cannot create or
    destroy entanglement, so nothing is lost except the filtered-only
    criteria).
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
