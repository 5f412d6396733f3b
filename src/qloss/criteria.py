"""Entanglement detection tests and measures for bipartite mixed states.

Two correlation-matrix tests are exposed. Both read the singular values tau
of the correlation matrix from one :func:`qloss.bloch.correlation_svd`
result, so a classification decomposes the matrix once:

* the Ky Fan criterion: a normal-form N x M state with
  ``(sum tau)^2 > 4(N-1)(M-1)/(NM)`` is entangled;
* the singular-value length bound ``K = sqrt(N(N-1)M(M-1))/2 * sum tau <= 1``
  claimed necessary for separable normal forms.

The second test empirically fires on provably separable states (for the
3 x 3 isotropic state at its separability boundary K = 4), so the classifier
in :mod:`qloss.robustness` treats it as informational only; the Ky Fan test
showed no false positives over large separable samples.

Detection verdicts use a strict inequality with a 1e-10 deadband: statistics
inside the band report NotDetected rather than a knife-edge claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numerics
from .bloch import CorrelationSVD
from .errors import DimensionMismatchError, QlossError
from .states import DensityMatrix, StateVector, _bipartite_dims, transpose_side
from .su_basis import generators

DEADBAND = 1e-10

#: The two-qubit spin flip sigma_y (x) sigma_y of the Wootters formula.
SPIN_FLIP = np.kron(generators(2)[1], generators(2)[1])


class Verdict(str, Enum):
    DETECTED = "EntanglementDetected"
    NOT_DETECTED = "NotDetected"
    SEPARABLE = "SeparabilityCertified"


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one detection test."""

    name: str
    statistic: float
    threshold: float
    verdict: Verdict
    notes: str = ""


@dataclass(frozen=True)
class MeasureValue:
    """Value of an entanglement measure, exact or an upper bound."""

    name: str
    value: float
    kind: str                   # "exact" or "upper_bound"
    notes: str = ""


def _detection(statistic: float, threshold: float) -> Verdict:
    return Verdict.DETECTED if statistic > threshold + DEADBAND else Verdict.NOT_DETECTED


def _notes(text: str, csvd: CorrelationSVD) -> str:
    """A criterion's notes, with the clause saying how its normal form was reached."""
    return f"{text}; {csvd.notes}" if csvd.notes else text


def kf_criterion(csvd: CorrelationSVD) -> CriterionResult:
    """Ky Fan norm test on the correlation matrix of a normal-form state.

    The statistic is the squared sum of the singular values in ``csvd``;
    the threshold is only justified for maximally mixed marginals. Never
    certifies separability.
    """
    n, m = csvd.dims
    statistic = float(csvd.tau.sum()) ** 2
    threshold = 4.0 * (n - 1) * (m - 1) / (n * m)
    return CriterionResult("ky_fan", statistic, threshold, _detection(statistic, threshold),
                           notes=_notes("squared Ky Fan norm of the correlation matrix", csvd))


def length_bound_criterion(csvd: CorrelationSVD) -> CriterionResult:
    """Rescaled singular-value sum K; K > 1 flags entanglement.

    Reported informationally by the classifier: the bound demonstrably
    exceeds 1 on some separable states, so it must not certify on its own.
    """
    n, m = csvd.dims
    scale = np.sqrt(n * (n - 1) * m * (m - 1)) / 2.0
    statistic = float(scale * csvd.tau.sum())
    notes = _notes("rescaled correlation singular values (informational)", csvd)
    return CriterionResult("length_bound", statistic, 1.0, _detection(statistic, 1.0), notes=notes)


def ppt_negativity(rho: DensityMatrix) -> tuple[CriterionResult, MeasureValue]:
    """Partial-transpose test plus the negativity measure.

    Negativity is computed both as |sum of negative PT eigenvalues| and as
    (trace_norm(PT) - 1)/2; the two must agree to 1e-10. The PT spectrum
    comes from ``eigh`` up to N*M = 25 and from ``eigvalsh``, with no
    eigenvectors, above (see :func:`stacked_negativity`). Hermiticity was
    checked where ``rho`` entered qloss (``DensityMatrix(...)``,
    :meth:`DensityMatrix.create`), unless qloss built it, so the partial
    transpose is not checked again: it is symmetrized, then solved, except
    that a built state's partial transpose above 25 equals its conjugate
    transpose entry for entry and goes to LAPACK as it is. A PPT verdict
    certifies separability only where PPT is sufficient: N*M <= 6, or a
    trivial local side (min(N, M) = 1, where every state is separable).
    """
    n, m = _bipartite_dims(rho, "PPT test")
    pt = transpose_side(rho.matrix[None], rho.dims, 0)
    w = numerics._built_eigenvalues(pt) if rho._built else numerics._eigenvalues(pt)
    negativity = float(_negativity(w)[0])
    if negativity > DEADBAND:
        verdict = Verdict.DETECTED
        notes = "negative partial-transpose eigenvalue"
    elif n * m <= 6 or min(n, m) == 1:
        verdict = Verdict.SEPARABLE
        notes = "PPT in a dimension regime where PPT implies separability"
    else:
        verdict = Verdict.NOT_DETECTED
        notes = "PPT; bound entanglement not excluded at these dimensions"
    return (CriterionResult("ppt", negativity, 0.0, verdict, notes=notes),
            MeasureValue("negativity", negativity, "exact"))


def concurrence_pure(state: StateVector) -> MeasureValue:
    """Concurrence of a pure bipartite state, sqrt(2 (1 - Tr rho_A^2))."""
    n, m = _bipartite_dims(state, "pure-state concurrence")
    block = state.amplitudes.reshape(n, m)
    rho_a = block @ block.conj().T
    purity = float(np.einsum("ij,ji->", rho_a, rho_a).real)
    value = float(np.sqrt(max(0.0, 2.0 * (1.0 - purity))))
    return MeasureValue("concurrence", value, "exact")


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Exact two-qubit concurrence via the spin-flip eigenvalue formula."""
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"spin-flip formula needs dims (2, 2), got {rho.dims}")
    return float(stacked_wootters(rho.matrix[None])[0])


def stacked_negativity(mats: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Negativity of each bipartite density matrix of a ``(k, nm, nm)`` stack.

    The negativity is |sum of negative partial-transpose eigenvalues|; it
    must agree with (trace_norm(PT) - 1)/2 to 1e-10 on every member, or
    :class:`QlossError` is raised. PPT members give 0.0, never -0.0. The
    eigenvalues come from :func:`qloss.numerics.eigenvalues`: from ``eigh``
    up to nm = 25, from ``eigvalsh`` with no eigenvectors above.

    Each member is checked for Hermiticity once, on its partial transpose
    (that only permutes entries, so its deviations are the member's), then
    symmetrized, at every nm.
    """
    return _negativity(numerics.eigenvalues(transpose_side(mats, dims, 0)))


def _negativity(w: np.ndarray) -> np.ndarray:
    """:func:`stacked_negativity` from the ascending partial-transpose
    spectra ``w``, one per row."""
    neg_sum = -np.minimum(w, 0.0).sum(axis=-1)
    from_norm = (np.abs(w).sum(axis=-1) - 1.0) / 2.0
    gap = np.abs(neg_sum - from_norm)
    if max(gap.flat) > 1e-10:
        worst = gap.argmax()
        raise QlossError(f"negativity cross-check failed: {float(neg_sum.flat[worst])!r} vs "
                         f"{float(from_norm.flat[worst])!r}")
    return np.where(neg_sum > 0, neg_sum, 0.0)


def stacked_wootters(mats: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each two-qubit density matrix of a ``(k, 4, 4)`` stack.

    The members are not checked for Hermiticity: they are density matrices,
    or a stack :func:`~qloss.states.normalize_density` checked. The square
    root still raises :class:`NotPSDError` on a member that is not PSD.
    """
    root = numerics._sqrt_psd(mats)
    w = numerics._eigenvalues(root @ SPIN_FLIP @ mats.conj() @ SPIN_FLIP @ root)
    lam = np.sqrt(np.clip(w, 0.0, None))[..., ::-1]
    value = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.where(value > 0, value, 0.0)


@dataclass(frozen=True)
class RoofBudget:
    """Search budget for the convex-roof upper bound."""

    restarts: int = 32
    iterations: int = 500
    seed: int = 0


def _pure_concurrence_unnormalized(column: np.ndarray, n: int, m: int) -> float:
    """p * C(psi/sqrt(p)) for an unnormalized ensemble member (p = |psi|^2)."""
    p = float(np.vdot(column, column).real)
    if p <= 1e-30:
        return 0.0
    block = column.reshape(n, m)
    gram = block.conj().T @ block
    purity = float(np.einsum("ij,ji->", gram, gram).real)
    return p * np.sqrt(max(0.0, 2.0 * (1.0 - purity / (p * p))))


def concurrence_roof(rho: DensityMatrix, budget: RoofBudget,
                     rank_tol: float = numerics.RANK_TOL) -> MeasureValue:
    """Convex-roof upper bound on the concurrence of a bipartite mixed state.

    Ensembles {p_j, psi_j} of size K = rank + 2 are generated by isometry
    mixing of the state's Gram factor (every size-K decomposition of rho
    arises this way); the rank is decided by ``rank_tol``, as everywhere
    else. The average pure-state concurrence is minimized by a seeded
    multi-start random local search. The result is an upper bound on the
    convex-roof infimum; no convergence claim is made. Seed, budget and
    ensemble size are recorded in the output notes for reproducibility.
    """
    n, m = _bipartite_dims(rho, "concurrence")
    sub = rho._gram_factor(rank_tol)                # columns are subnormalized
    rank = sub.shape[1]
    size = rank + 2

    def cost(mix: np.ndarray) -> float:
        members = sub @ mix.T                       # one unnormalized state per column
        return sum(_pure_concurrence_unnormalized(members[:, j], n, m)
                   for j in range(members.shape[1]))

    eigen_mix = np.zeros((size, rank), dtype=complex)
    eigen_mix[:rank, :rank] = np.eye(rank)
    best = cost(eigen_mix)
    for restart in range(budget.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence([budget.seed & (2**63 - 1), restart]))
        x = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
        value = cost(numerics._phase_fixed_qr(x))
        step = 0.5
        for _ in range(budget.iterations):
            proposal = x + step * (rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape))
            trial = cost(numerics._phase_fixed_qr(proposal))
            if trial < value:
                x, value = proposal, trial
            else:
                step = max(step * 0.97, 1e-3)
        best = min(best, value)
    notes = (f"convex-roof local search: seed={budget.seed} restarts={budget.restarts} "
             f"iterations={budget.iterations} ensemble={size}")
    return MeasureValue("concurrence", float(best), "upper_bound", notes=notes)


def concurrence(rho: DensityMatrix, budget: RoofBudget | None = None,
                rank_tol: float = numerics.RANK_TOL) -> MeasureValue | None:
    """Concurrence of a bipartite mixed state, by the first rule that applies.

    Two-qubit input gets the exact spin-flip value; a pure state (rank 1
    under ``rank_tol``) gets the exact pure-state value of its Gram factor;
    with a ``budget``, anything else gets the convex-roof upper bound
    (flagged as such in the result). Otherwise there is no value: None.
    """
    if _bipartite_dims(rho, "concurrence") == (2, 2):
        return MeasureValue("concurrence", wootters_concurrence(rho), "exact",
                            notes="spin-flip eigenvalue formula")
    # under the rank_tol rule a pure state has 1 - Tr(rho^2) <= 2 (d - 1) rank_tol,
    # since 1 - w1^2 <= 2 (1 - w1); the 1e-12 absorbs the trace's rounding. The
    # test spares mixed states the eigensolve of the Gram factor. A kept factor
    # G answers it from its rank x rank G^dag G, with Tr(rho^2) = |G^dag G|^2 /
    # Tr(G^dag G)^2; only a dense state reads its NM x NM entries.
    g = rho._factor
    if g is None:
        purity = np.vdot(rho.matrix, rho.matrix).real
    else:
        gram = g.conj().T @ g
        purity = np.vdot(gram, gram).real / gram.trace().real ** 2
    if 1.0 - purity <= 2 * (rho.matrix.shape[0] - 1) * rank_tol + 1e-12:
        g = rho._gram_factor(rank_tol)
        if g.shape[1] == 1:
            value = concurrence_pure(StateVector.create(g[:, 0], rho.dims)).value
            return MeasureValue("concurrence", value, "exact", notes="pure residual")
    return None if budget is None else concurrence_roof(rho, budget, rank_tol)


def example1_region(t1: float, t2: float, t3: float, alpha) -> bool:
    """Sufficient separability region for the 2 x 4 correlation family.

    True iff t1^2/a1^2 + t3^2/a3^2 <= 1/4, t2^2/a2^2 <= 1/4 and
    a1^2 + a2^2 + a3^2 <= 1. A zero alpha component with a nonzero matching
    t fails the region; with a zero t the term contributes nothing.
    """
    a1, a2, a3 = (float(a) for a in alpha)

    def quotient(t, a):
        if a == 0.0:
            return None if t != 0.0 else 0.0
        return (t * t) / (a * a)

    q1 = quotient(t1, a1)
    q2 = quotient(t2, a2)
    q3 = quotient(t3, a3)
    if q1 is None or q2 is None or q3 is None:
        return False
    return (q1 + q3 <= 0.25) and (q2 <= 0.25) and (a1 * a1 + a2 * a2 + a3 * a3 <= 1.0)


def build_example1_state(t1: float, t2: float, t3: float) -> DensityMatrix:
    """Three-parameter 2 x 4 family with maximally mixed marginals.

    rho = I/8 + 1/4 (t1 p1 (x) g1 + t2 p2 (x) g13 + t3 p3 (x) g3) with Pauli
    p_i on the qubit. The three SU(4) generators are chosen so that g1, g3
    act as Pauli x/z on levels {0, 1} and g13 as Pauli x on levels {2, 3}
    (basis indices 1, 13 and 6 in this library's ordering: the reading under
    which the separable-region statement holds; see the region docs). The
    family is its own normal form: both local Bloch vectors vanish.

    Raises :class:`NotPSDError` for parameters outside the physical range
    (|t1| + |t3| <= 1/2 and |t2| <= 1/2).
    """
    pauli = generators(2)
    su4 = generators(4)
    g1 = su4[0]     # symmetric (0, 1)
    g13 = su4[5]    # symmetric (2, 3)
    g3 = su4[12]    # diag(1, -1, 0, 0)
    mat = np.eye(8, dtype=complex) / 8.0
    mat += (t1 * np.kron(pauli[0], g1) + t2 * np.kron(pauli[1], g13)
            + t3 * np.kron(pauli[2], g3)) / 4.0
    return DensityMatrix.create(mat, (2, 4))
