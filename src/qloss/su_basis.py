"""SU(N) generator basis (generalized Gell-Mann matrices).

Ordering convention, pinned for reproducibility (0-based level indices):

1. symmetric off-diagonal pairs ``E_jk + E_kj`` for j < k, lexicographic (j, k);
2. antisymmetric pairs ``-i (E_jk - E_kj)`` in the same (j, k) order;
3. the N-1 diagonal generators
   ``sqrt(2 / (l (l+1))) * (sum_{m<l} E_mm - l E_ll)`` for l = 1 .. N-1.

For N = 2 this yields the Pauli matrices (x, y, z). All generators are
Hermitian, traceless, and normalized to ``Tr(g_a g_b) = 2 delta_ab``; that
normalization is what makes the 1/(2M), 1/(2N), 1/4 prefactors of the Bloch
expansion come out right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered basis of the N*N - 1 SU(N) generators."""

    dim: int
    matrices: tuple[np.ndarray, ...]
    #: descriptor per element: ("symmetric", j, k), ("antisymmetric", j, k)
    #: or ("diagonal", l) with the convention above
    labels: tuple[tuple, ...]
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # one read-only stack, built once; the matrices become views of it
        stack = np.array(self.matrices, dtype=complex)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "matrices", tuple(stack))

    def __len__(self) -> int:
        return len(self.matrices)

    def __iter__(self):
        return iter(self.matrices)

    def __getitem__(self, index: int) -> np.ndarray:
        return self.matrices[index]

    def stacked(self) -> np.ndarray:
        """All generators as one read-only (N^2-1, N, N) array, the same
        object on every call."""
        return self._stack


@lru_cache(maxsize=None)
def generators(n: int) -> GeneratorBasis:
    """Construct (and memoize) the SU(n) generator basis for n >= 2."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidDimensionError(f"generator basis needs dimension >= 2, got {n!r}")
    n = int(n)
    mats: list[np.ndarray] = []
    labels: list[tuple] = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
            labels.append(("symmetric", j, k))
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
            labels.append(("antisymmetric", j, k))
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -float(l)
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
        labels.append(("diagonal", l))
    return GeneratorBasis(dim=n, matrices=tuple(mats), labels=tuple(labels))


def expand_in_basis(h: np.ndarray, basis: GeneratorBasis) -> np.ndarray:
    """Coefficients c_a = Tr(h g_a) of a Hermitian matrix in the basis.

    The matrix is recovered as ``h = Tr(h)/N * I + 1/2 sum_a c_a g_a``.
    Raises :class:`DimensionMismatchError` when shapes disagree.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (basis.dim, basis.dim):
        raise DimensionMismatchError(
            f"matrix shape {h.shape} does not match basis dimension {basis.dim}")
    coeffs = np.einsum("aij,ji->a", basis.stacked(), h)
    return coeffs.real.copy()
