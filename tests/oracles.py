"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written with plain index loops or a
different algorithm than the library uses, so the tests check against an
independent computation path.
"""

import numpy as np


def ptrace_brute(mat, dims, keep):
    """Partial trace by summing matrix entries index by index."""
    dims = tuple(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    d_out = int(np.prod(kept_dims))
    out = np.zeros((d_out, d_out), dtype=complex)

    def unflatten(flat, ds):
        labels = []
        for d in reversed(ds):
            labels.append(flat % d)
            flat //= d
        return list(reversed(labels))

    def flatten(labels, ds):
        flat = 0
        for l, d in zip(labels, ds):
            flat = flat * d + l
        return flat

    for r_out in range(d_out):
        for c_out in range(d_out):
            row_keep = unflatten(r_out, kept_dims)
            col_keep = unflatten(c_out, kept_dims)
            total = 0.0 + 0.0j
            for t in range(int(np.prod([dims[i] for i in traced])) if traced else 1):
                t_labels = unflatten(t, [dims[i] for i in traced]) if traced else []
                row_full = [0] * len(dims)
                col_full = [0] * len(dims)
                for pos, lab in zip(keep, row_keep):
                    row_full[pos] = lab
                for pos, lab in zip(keep, col_keep):
                    col_full[pos] = lab
                for pos, lab in zip(traced, t_labels):
                    row_full[pos] = lab
                    col_full[pos] = lab
                total += mat[flatten(row_full, dims), flatten(col_full, dims)]
            out[r_out, c_out] = total
    return out


def pt_brute(mat, n, m):
    """Partial transpose on the first party, entry by entry."""
    out = np.zeros_like(np.asarray(mat, dtype=complex))
    for i in range(n):
        for j in range(m):
            for k in range(n):
                for l in range(m):
                    out[i * m + j, k * m + l] = mat[k * m + j, i * m + l]
    return out


def negativity_oracle(mat, n, m):
    """|sum of negative eigenvalues| of the brute-force partial transpose."""
    w = np.linalg.eigvalsh(pt_brute(mat, n, m))
    return float(-w[w < 0].sum())


def wootters_oracle(mat):
    """Two-qubit concurrence via the non-Hermitian product spectrum."""
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    product = mat @ flip @ mat.conj() @ flip
    mu = np.sort(np.abs(np.linalg.eigvals(product).real))[::-1]
    lam = np.sqrt(np.clip(mu, 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def bloch_t_oracle(mat, basis_a, basis_b):
    """Correlation matrix by explicit kron-and-trace loops."""
    t = np.zeros((len(basis_a), len(basis_b)))
    for i, ga in enumerate(basis_a):
        for j, gb in enumerate(basis_b):
            t[i, j] = np.trace(mat @ np.kron(ga, gb)).real
    return t


def ky_fan_oracle(t):
    """Squared Ky Fan norm of a real matrix from the eigenvalues of its
    smaller Gram matrix, ``(sum sqrt(eig(t t^T)))^2``, with no SVD."""
    t = np.asarray(t)
    gram = t @ t.T if t.shape[0] <= t.shape[1] else t.T @ t
    return float(np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None)).sum()) ** 2


def sinkhorn_oracle(mat, dims, tol=1e-9, max_iter=500, rank_tol=1e-10, omega=1.0):
    """Operator Sinkhorn scaling of a bipartite density matrix at a fixed
    relaxation factor ``omega``.

    Factors ``mat = G G^dag`` by diagonalising it, then alternates
    ``(N rho_A)^(-omega/2)`` on G's first leg and ``(M rho_B)^(-omega/2)`` on
    its second, renormalising after each pair, until both marginals are
    within ``tol`` (max-entry distance) of I/d. At ``omega = 1`` the
    arithmetic is the loop that the library's filtering runs during its
    probe; there is no schedule, stall detection or breakdown check. Returns
    the unit-trace filtered matrix and the step count, or ``(None,
    max_iter)`` at the cap.
    """
    n, m = dims
    mat = np.asarray(mat, dtype=complex)
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    keep = w > rank_tol * w.max()
    g = v[:, keep] * np.sqrt(w[keep])
    tensor = mat.reshape(n, m, n, m)
    rho_a, rho_b = np.einsum("jmkm->jk", tensor), np.einsum("jmjn->mn", tensor)

    def inv_sqrt(h):
        w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
        inv = 1.0 / np.sqrt(w)
        return (v * (inv if omega == 1.0 else inv ** omega)) @ v.conj().T

    for step in range(max_iter + 1):
        if max(np.abs(rho_a - np.eye(n) / n).max(), np.abs(rho_b - np.eye(m) / m).max()) <= tol:
            out = g @ g.conj().T
            out = (out + out.conj().T) / 2.0
            return out / out.trace().real, step
        if step == max_iter:
            return None, max_iter
        g_a = inv_sqrt(n * rho_a) @ g.reshape(n, -1)
        g_b = g_a.reshape(n, m, -1).transpose(1, 0, 2).reshape(m, -1)
        g_b = inv_sqrt(m * (g_b @ g_b.conj().T)) @ g_b
        g_b = g_b / np.sqrt(np.vdot(g_b, g_b).real)
        g = g_b.reshape(m, n, -1).transpose(1, 0, 2).reshape(n * m, -1)
        g_a = g.reshape(n, -1)
        rho_a, rho_b = g_a @ g_a.conj().T, g_b @ g_b.conj().T


def realignment_rate(sigma, dims):
    """Asymptotic per-step rate of unrelaxed filtering near the normal form
    ``sigma``, from its realigned matrix ``R[(i,k),(j,l)] = sigma[(i,j),(k,l)]``.

    R's squared singular values, normalised by the largest, start with a run
    of ones; the largest one below 1 is the rate (0 when there is none, as
    for a state that one step filters exactly).
    """
    n, m = dims
    r = np.asarray(sigma).reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    s = np.linalg.svd(r, compute_uv=False) ** 2
    below = s[s < s[0] * (1.0 - 1e-6)]
    return float(below[0] / s[0]) if below.size else 0.0


def three_tangle(amps):
    """3-tangle 4 |Det| of a three-qubit state from Cayley's hyperdeterminant
    of its 8 amplitudes a[ijk] (Coffman, Kundu, Wootters, PRA 61, 052306)."""
    a = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    a = a / np.linalg.norm(a)
    det = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
           + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
           - 2 * (a[0, 0, 0] * a[1, 1, 1] * a[0, 0, 1] * a[1, 1, 0]
                  + a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 0] * a[1, 0, 1]
                  + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 0] * a[0, 1, 1]
                  + a[0, 0, 1] * a[1, 1, 0] * a[0, 1, 0] * a[1, 0, 1]
                  + a[0, 0, 1] * a[1, 1, 0] * a[1, 0, 0] * a[0, 1, 1]
                  + a[0, 1, 0] * a[1, 0, 1] * a[1, 0, 0] * a[0, 1, 1])
           + 4 * (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
                  + a[1, 1, 1] * a[1, 0, 0] * a[0, 1, 0] * a[0, 0, 1]))
    return float(4 * abs(det))


def random_hermitian(rng, dim, scale=1.0):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (z + z.conj().T) / 2.0


def random_unitary_oracle(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_oracle(rng, dim, min_eig=0.0):
    """Random density matrix; min_eig > 0 mixes in identity for conditioning."""
    u = random_unitary_oracle(rng, dim)
    w = rng.dirichlet(np.ones(dim))
    rho = (u * w) @ u.conj().T
    if min_eig > 0.0:
        rho = (1.0 - dim * min_eig) * rho + min_eig * np.eye(dim)
    return rho


def random_pure(rng, dim):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def sample_example1_region(rng, count):
    """(t, alpha) pairs inside the three-inequality separable region."""
    points = []
    while len(points) < count:
        alpha = rng.uniform(0.05, 1.0, 3)
        if (alpha ** 2).sum() > 1.0:
            continue
        t = rng.uniform(-0.6, 0.6, 3)
        if (t[0] ** 2 / alpha[0] ** 2 + t[2] ** 2 / alpha[2] ** 2 <= 0.25
                and t[1] ** 2 / alpha[1] ** 2 <= 0.25):
            points.append((t, alpha))
    return points
