"""Pure tripartite states, bipartite density matrices, and their reductions.

Basis order for a (d0, d1, d2) state vector is row-major over the labels
|i>|j>|k> with k fastest, which makes the two qubit blocks of the amplitude
vector contiguous row-major N x M matrices (the Gamma blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ketparse, numerics
from .errors import (
    DimensionMismatchError,
    EmptyStateError,
    InvalidDimensionError,
    InvalidParamsError,
    InvalidSubsystemError,
    StateFileError,
)

NORM_ATOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a tensor-product basis."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if amps.ndim != 1 or amps.size != int(np.prod(dims)):
            raise DimensionMismatchError(
                f"amplitude vector of length {amps.size} does not match dims {dims}")
        norm2 = float(np.vdot(amps, amps).real)
        if not abs(norm2 - 1.0) <= NORM_ATOL:
            raise InvalidParamsError(f"state vector is not normalized (|psi|^2 = {norm2!r})")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def create(cls, amplitudes, dims, normalize: bool = True) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        bad = np.flatnonzero(~np.isfinite(amps))
        if bad.size:
            raise InvalidParamsError(f"state vector has {bad.size} non-finite amplitude(s), "
                                     f"the first {amps[bad[0]]} at index {bad[0]}")
        if normalize:
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(amps))
            # squares that over- or underflow: divided by the largest modulus first
            if not 1e-300 < norm < np.inf and (peak := np.abs(amps).max()) > 1e-300:
                amps /= peak
                norm = float(np.linalg.norm(amps))
            if norm <= 1e-300:
                raise EmptyStateError("state vector has zero norm")
            amps /= norm
        return cls(tuple(int(d) for d in dims), amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix with subsystem dimensions attached.

    Validated on construction, except by :meth:`_trusted`, which builds the
    states derived from valid ones and those that checked parameters make
    valid: they are PSD by construction. Hermiticity is checked here, where a
    matrix enters qloss: on ``DensityMatrix(...)`` input as given, and on
    :meth:`create` input before :func:`_unit_trace` symmetrizes it once.
    Nothing downstream checks a state's matrix again: the pipeline hands it,
    and the matrices derived from it, to the unchecked :mod:`qloss.numerics`
    kernels."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    _factor = None          # Gram factor F, matrix proportional to F F^dag; see _trusted
    _built = False          # set by create and _trusted: _unit_trace built the matrix
    _marginals = None       # cache of _local_spectra: the matrix never changes

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        d = int(np.prod(dims))
        if mat.shape != (d, d):
            raise DimensionMismatchError(f"matrix shape {mat.shape} does not match dims {dims}")
        if not self._built:
            numerics.check_hermitian(mat, what="density matrix")
        _check_unit_psd(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def create(cls, matrix, dims) -> "DensityMatrix":
        """Symmetrize, renormalize the trace, validate, and wrap."""
        # entries that overflow once symmetrized are refused by _check_unit_psd
        with np.errstate(over="ignore", invalid="ignore"):
            mat = normalize_density(matrix)
        rho = object.__new__(cls)
        vars(rho)["_built"] = True
        rho.__init__(tuple(int(d) for d in dims), mat)
        return rho

    @classmethod
    def _trusted(cls, matrix, dims, factor: np.ndarray | None = None) -> "DensityMatrix":
        """Symmetrize and renormalize like :meth:`create`, but check nothing;
        ``factor``, if given, is a Gram factor of ``matrix``."""
        mat = _unit_trace(np.asarray(matrix, dtype=complex))
        mat.setflags(write=False)
        rho = object.__new__(cls)
        vars(rho).update(dims=tuple(int(d) for d in dims), matrix=mat, _factor=factor, _built=True)
        return rho

    def _gram_factor(self, rank_tol: float = numerics.RANK_TOL) -> np.ndarray:
        """F with ``matrix`` proportional to F F^dag and one orthogonal column per
        eigenvalue on the :func:`numerics.support`, ascending. A kept factor G
        is orthogonalised through G^dag G, else ``matrix`` is diagonalised."""
        g = self._factor
        w, v = numerics._eigh(self.matrix if g is None else g.conj().T @ g)
        keep = numerics.support(w, rank_tol)
        return v[:, keep] * np.sqrt(w[keep]) if g is None else g @ v[:, keep]

    def _local_spectra(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """``(marginal, w, V)`` for each side of a bipartite state: the reduced
        matrix and its :func:`numerics.eigh`, unchecked. Computed once per
        state, since :func:`reduce_support` and the normal form both read them."""
        if self._marginals is None:
            n, m = self.dims
            tensor = self.matrix.reshape(n, m, n, m)
            sides = np.einsum("jmkm->jk", tensor), np.einsum("jmjn->mn", tensor)
            # one call on N x N: each member of a stack gets its own call's arithmetic
            spectra = (zip(*numerics._eigh(np.stack(sides))) if n == m
                       else map(numerics._eigh, sides))
            vars(self)["_marginals"] = tuple((side, w, v) for side, (w, v) in zip(sides, spectra))
        return self._marginals


def normalize_density(matrix) -> np.ndarray:
    """Symmetrize a matrix, or each matrix of a stack, and scale it to unit trace.

    Raises :class:`NotHermitianError` if a member is not Hermitian at
    ``numerics.HERMITIAN_ATOL`` and :class:`InvalidParamsError` if a member
    has zero trace.
    """
    mat = np.asarray(matrix, dtype=complex)
    numerics.check_hermitian(mat)
    return _unit_trace(mat)


def _unit_trace(mat: np.ndarray) -> np.ndarray:
    """(mat + mat^dag)/2 over its real trace, in one new array: the one
    symmetrization of every state the library builds. The result equals its
    conjugate transpose entry for entry: the sum is commutative, and
    dividing by 2 and by a real trace treats an entry and its mirror alike.
    So does its partial transpose. No check runs here: the input was
    checked where it entered qloss (:func:`normalize_density`), or qloss
    built it. The partial transpose goes to LAPACK unchecked, and above
    dimension 25 unsymmetrized (:func:`numerics._built_eigenvalues`).

    Up to dimension 25 both divisions are numpy's complex divisions. Above,
    they are products of the float view, which take a fraction of the time:
    numpy divides x by a real c as (re x + im x * 0, im x - re x * 0) * (1 / c),
    which on finite parts is the product but for the signs of some zeros.
    """
    # conj(m_ji) + m_ij is m_ij + conj(m_ji), bit for bit
    out = np.conjugate(mat.swapaxes(-1, -2), order="C")
    out += mat
    if out.shape[-1] > numerics._EIGENVECTORS_UP_TO:
        parts = out.view(np.float64)
        scale = lambda c: np.multiply(parts, 1.0 / c, out=parts)
    else:
        scale = lambda c: np.divide(out, c, out=out)
    scale(2.0)
    tr = out.trace(axis1=-2, axis2=-1).real
    if min(np.abs(tr).flat) <= 1e-300:
        raise InvalidParamsError("matrix has zero trace, cannot normalize")
    scale(tr[..., None, None])
    return out


def _check_unit_psd(mat: np.ndarray) -> None:
    """Raise :class:`InvalidParamsError` unless a Hermitian ``mat`` has unit
    trace and is finite once symmetrized, and :class:`NotPSDError` unless
    it is PSD, each to the module's tolerances."""
    tr = mat.trace(axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0)
    if not (off <= NORM_ATOL).all():            # a NaN trace fails too
        raise InvalidParamsError(f"density matrix trace is {float(tr.flat[off.argmax()])!r}, not 1")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (mat + numerics.dagger(mat)) / 2.0
    if not np.isfinite(sym).all():              # LAPACK fails on inf or NaN
        raise InvalidParamsError("density matrix is not finite once symmetrized")
    numerics.check_psd(np.linalg.eigvalsh(sym), what="density matrix")


def _check_tripartite_dims(dims) -> None:
    """Raise unless ``dims`` is a 2 x N x M system: three subsystems, a qubit
    first, and two qunits of dimension at least 2, in either order."""
    if len(dims) != 3:
        raise DimensionMismatchError(f"expected 2 x N x M dims, got {tuple(dims)}")
    if dims[0] != 2:
        raise InvalidDimensionError(f"first subsystem must be a qubit, got {dims[0]}")
    if min(dims[1:]) < 2:
        raise InvalidDimensionError(
            f"qunit dimensions must be at least 2, got ({dims[1]}, {dims[2]})")


def _bipartite_dims(state, what: str) -> tuple[int, int]:
    """``state.dims`` as ``(N, M)``; raise, naming ``what``, unless there are two."""
    if len(state.dims) != 2:
        raise DimensionMismatchError(f"{what} needs bipartite dims, got {state.dims}")
    return state.dims


def density(state: StateVector) -> DensityMatrix:
    """Rank-1 projector |psi><psi| of a pure state."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix._trusted(rho, state.dims)


def _gamma_residual(state: StateVector) -> DensityMatrix:
    """What a (2, N, M) pure state leaves when its qubit is lost: G G^dag, with
    the two Gamma blocks as the columns of G, which it keeps as its factor."""
    _, n, m = state.dims
    g = state.amplitudes.reshape(2, n * m).T
    return DensityMatrix._trusted(g @ g.conj().T, (n, m), factor=g)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out the subsystems not in ``keep``; output dims follow input order."""
    dims = rho.dims
    nd = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= nd for k in keep):
        raise InvalidSubsystemError(f"keep={keep} invalid for {nd} subsystems")
    tensor = rho.matrix.reshape(dims + dims)
    row = [chr(ord("a") + i) for i in range(nd)]
    col = [chr(ord("a") + nd + i) for i in range(nd)]
    for i in range(nd):
        if i not in keep:
            col[i] = row[i]
    subscripts = "".join(row + col) + "->" + "".join(row[i] for i in keep) + "".join(
        chr(ord("a") + nd + i) for i in keep)
    out_dims = tuple(dims[i] for i in keep)
    d = int(np.prod(out_dims))
    reduced = np.einsum(subscripts, tensor).reshape(d, d)
    return DensityMatrix._trusted(reduced, out_dims)


def partial_transpose(rho: DensityMatrix, subsystem: int = 0) -> np.ndarray:
    """Transpose one side of a bipartite density matrix.

    The output is Hermitian with unit trace but in general not PSD; a
    negative eigenvalue witnesses entanglement.
    """
    dims = _bipartite_dims(rho, "partial transpose")
    if subsystem not in (0, 1):
        raise InvalidSubsystemError(f"subsystem must be 0 or 1, got {subsystem}")
    return transpose_side(rho.matrix, dims, subsystem)


def transpose_side(mats: np.ndarray, dims: tuple[int, int], subsystem: int) -> np.ndarray:
    """Partial transpose of each (n m) x (n m) matrix of a stack, on one side
    of the dims ``(n, m)``; returns a new array of the input's shape."""
    n, m = dims
    tensor = mats.reshape(mats.shape[:-2] + (n, m, n, m))
    out = np.empty(mats.shape, dtype=mats.dtype)
    out.reshape(tensor.shape)[...] = (tensor.swapaxes(-4, -2) if subsystem == 0
                                      else tensor.swapaxes(-3, -1))
    return out


def reduce_support(rho: DensityMatrix, rank_tol: float = numerics.RANK_TOL) -> DensityMatrix:
    """Project a bipartite state onto the support of its marginals.

    Each marginal is diagonalized with eigenvalues descending so the support
    occupies the leading indices, and the state is compressed to the n x m
    support block. This is a local-unitary rotation followed by a projection
    onto a subspace containing the whole state, so entanglement (and in
    particular negativity) is unchanged. Full-rank input is returned
    unchanged. Degenerate marginal eigenvalues only permute vectors inside
    the support subspace, which the compression is blind to.
    """
    big_n, big_m = _bipartite_dims(rho, "support reduction")
    basis = []
    ranks = []
    for _, w, v in rho._local_spectra():
        basis.append(v[:, ::-1])
        ranks.append(int(numerics.support(w, rank_tol).sum()))
    n, m = ranks
    if (n, m) == (big_n, big_m):
        return rho
    iso = np.kron(basis[0][:, :n], basis[1][:, :m])
    g = None if rho._factor is None else iso.conj().T @ rho._factor
    compressed = iso.conj().T @ rho.matrix @ iso if g is None else g @ g.conj().T
    return DensityMatrix._trusted(compressed, (n, m), factor=g)


def parse_ket(text: str, dims, normalize: bool = True) -> StateVector:
    """Parse a ket expression (see :mod:`qloss.ketparse`) into a state vector.

    With ``normalize`` off the amplitudes are kept exactly as written and
    must already have unit norm.
    """
    amps = ketparse.parse_ket_amplitudes(text, dims)
    return StateVector.create(amps, dims, normalize=normalize)


# --- state file format -----------------------------------------------------
#
#   dims: d0 d1 d2        (or "dims: n m" for a bipartite density input)
#   ket: <expression>     (or "rho:" followed by rows of 'a+bi' entries)


@dataclass(frozen=True)
class StateFile:
    """Parsed content of a state file."""

    kind: str                     # "ket" or "rho"
    dims: tuple[int, ...]
    state: object                 # StateVector or DensityMatrix
    text: str


def parse_state_file(text: str) -> StateFile:
    """Parse the text state-file format into a state object."""
    lines = text.splitlines()
    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(lines) and lines[idx].strip() == "":
            idx += 1
        if idx >= len(lines):
            return None, idx
        idx += 1
        return lines[idx - 1], idx

    header, lineno = next_line()
    if header is None or not header.strip().startswith("dims:"):
        raise StateFileError("expected a 'dims:' header line", lineno if header else 1)
    try:
        dims = tuple(int(tok) for tok in header.strip()[len("dims:"):].split())
    except ValueError:
        raise StateFileError("dims must be integers", lineno) from None
    if len(dims) not in (2, 3) or any(d < 1 for d in dims):
        raise StateFileError(f"unsupported dims {dims}", lineno)

    body, lineno = next_line()
    if body is None:
        raise StateFileError("missing 'ket:' or 'rho:' section", lineno)
    stripped = body.strip()
    if stripped.startswith("ket:"):
        state = parse_ket(stripped[len("ket:"):].strip(), dims)
        return StateFile("ket", dims, state, text)
    if stripped.startswith("rho:"):
        d = int(np.prod(dims))
        rows = []
        while True:
            line, lineno = next_line()
            if line is None:
                break
            tokens = line.split()
            try:
                rows.append([ketparse.parse_complex(tok) for tok in tokens])
            except ValueError as exc:
                raise StateFileError(f"bad matrix entry: {exc}", lineno) from None
        if len(rows) != d or any(len(r) != d for r in rows):
            raise StateFileError(f"rho section must be a {d}x{d} matrix")
        mat = np.array(rows, dtype=complex)
        return StateFile("rho", dims, DensityMatrix.create(mat, dims), text)
    raise StateFileError("expected 'ket:' or 'rho:' section", lineno)


def read_state_file(path) -> StateFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_state_file(fh.read())
