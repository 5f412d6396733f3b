"""End-to-end qubit-loss robustness classification and the state families.

A tripartite 2 x N x M pure state is *robust* against losing its qubit when
the residual N x M mixed state (qubit traced out) is still entangled, and
*fragile* when the residual is separable. The classifier runs:

1. the residual after losing the qubit (subsystem 0), from the Gamma blocks,
2. support reduction to full local ranks (entanglement-preserving),
3. the PPT/negativity test,
4. the normal form (from the pencil at rank 2, else by filtering), then
   Ky Fan on success (the length-bound statistic is informational),
5. measures (negativity always; concurrence from the one dispatch
   :func:`qloss.criteria.concurrence`: exact for 2 x 2 or pure residuals,
   a convex-roof upper bound when a budget is supplied),

and pools the evidence: any detection => Robust; a separability certificate
with no detection => Fragile; otherwise Undetermined. Honest tri-state
output is preferred over a forced binary, since none of the criteria decides
separability in general dimensions.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import numerics
from .bloch import NF_MAX_ITER, NF_TOL, _normal_form_steps, _normal_form_svd
from .criteria import (
    DEADBAND,
    CriterionResult,
    MeasureValue,
    RoofBudget,
    Verdict,
    build_example1_state,
    concurrence,
    example1_region,
    kf_criterion,
    length_bound_criterion,
    ppt_negativity,
    stacked_negativity,
    stacked_wootters,
)
from .errors import (
    DegenerateFamilyError,
    InvalidParamsError,
    NoConvergenceError,
    QlossError,
    RankDeficientError,
)
from .states import (
    DensityMatrix,
    StateVector,
    _check_tripartite_dims,
    _gamma_residual,
    normalize_density,
    reduce_support,
)

__version__ = "0.1.0"


class Classification(str, Enum):
    ROBUST = "Robust"
    FRAGILE = "Fragile"
    UNDETERMINED = "Undetermined"


@dataclass
class RobustnessReport:
    """Full evidence trail of one classification."""

    input: dict
    residual_dims: tuple[int, int]
    reduced_dims: tuple[int, int]
    normal_form_status: str                 # converged | diverged | rank_deficient
    criteria: list[CriterionResult]
    informational: list[CriterionResult]
    measures: list[MeasureValue]
    classification: Classification
    provenance: dict
    nf_iterations: int | None = None
    nf_stop: str | None = None              # why a diverged normal form stopped
    timings_ms: dict = field(default_factory=dict)


def _classify(criteria: list[CriterionResult]) -> Classification:
    if any(c.verdict is Verdict.DETECTED for c in criteria):
        return Classification.ROBUST
    if any(c.verdict is Verdict.SEPARABLE for c in criteria):
        return Classification.FRAGILE
    return Classification.UNDETERMINED


def classify_residual(
    rho: DensityMatrix,
    *,
    rank_tol: float = numerics.RANK_TOL,
    nf_tol: float = NF_TOL,
    roof_budget: RoofBudget | None = None,
    seed: int = 0,
    input_info: dict | None = None,
) -> RobustnessReport:
    """Run the detection pipeline on a bipartite state: reduce it to the
    support of its marginals, then run steps 3-5 of the module docstring on
    the reduced state and pool the verdicts."""
    timings: dict[str, float] = {}
    start = time.perf_counter()

    tick = time.perf_counter()
    reduced = reduce_support(rho, rank_tol)
    timings["reduce"] = (time.perf_counter() - tick) * 1e3

    tick = time.perf_counter()
    ppt_result, negativity = ppt_negativity(reduced)
    criteria = [ppt_result]
    informational: list[CriterionResult] = []
    measures = [negativity]
    timings["ppt"] = (time.perf_counter() - tick) * 1e3

    tick = time.perf_counter()
    nf_status = "converged"
    nf_iterations: int | None = None
    nf_stop: str | None = None
    try:
        filtered, nf_iterations = _normal_form_steps(reduced, tol=nf_tol, rank_tol=rank_tol)
    except NoConvergenceError as exc:
        filtered, nf_status = None, "diverged"
        nf_iterations, nf_stop = exc.iterations, exc.reason
    except RankDeficientError:
        filtered, nf_status = None, "rank_deficient"
    if filtered is not None:
        csvd = _normal_form_svd(filtered)
        criteria.append(kf_criterion(csvd))
        informational.append(length_bound_criterion(csvd))
    timings["normal_form"] = (time.perf_counter() - tick) * 1e3

    tick = time.perf_counter()
    value = concurrence(reduced, roof_budget, rank_tol)
    if value is not None:
        measures.append(value)
    timings["measures"] = (time.perf_counter() - tick) * 1e3
    timings["total"] = (time.perf_counter() - start) * 1e3

    return RobustnessReport(
        input=dict(input_info or {"kind": "bipartite_density", "dims": list(rho.dims)}),
        residual_dims=rho.dims,
        reduced_dims=reduced.dims,
        normal_form_status=nf_status,
        nf_iterations=nf_iterations,
        nf_stop=nf_stop,
        criteria=criteria,
        informational=informational,
        measures=measures,
        classification=_classify(criteria),
        provenance={
            "library_version": __version__,
            "seed": seed,
            "rank_tol": rank_tol,
            "nf_tol": nf_tol,
            "nf_max_iter": NF_MAX_ITER,
            "detection_deadband": DEADBAND,
            "support_reduced": reduced.dims != rho.dims,
        },
        timings_ms=timings,
    )


def classify_qubit_loss(
    state: StateVector,
    *,
    rank_tol: float = numerics.RANK_TOL,
    nf_tol: float = NF_TOL,
    roof_budget: RoofBudget | None = None,
    seed: int = 0,
) -> RobustnessReport:
    """Classify a 2 x N x M pure state as Robust/Fragile/Undetermined.

    The qubit is always subsystem 0. Raises :class:`DimensionMismatchError`
    or :class:`InvalidDimensionError` unless the dims are 2 x N x M. Qunit
    dimensions arriving as N > M are swapped by transposing the two Gamma
    blocks, and flagged in the report; the classification is invariant under
    local unitaries, so the swap is harmless.
    """
    tick = time.perf_counter()
    _check_tripartite_dims(state.dims)
    _, n, m = state.dims
    swapped = n > m
    if swapped:
        gammas = state.amplitudes.reshape(2, n, m).transpose(0, 2, 1)
        state = StateVector((2, m, n), gammas.reshape(-1))
    rho = _gamma_residual(state)
    trace_ms = (time.perf_counter() - tick) * 1e3
    info = {"kind": "tripartite_pure", "dims": list(state.dims), "swapped": swapped}
    report = classify_residual(
        rho, rank_tol=rank_tol, nf_tol=nf_tol, roof_budget=roof_budget, seed=seed,
        input_info=info)
    report.timings_ms["partial_trace"] = trace_ms
    report.timings_ms["total"] += trace_ms
    return report


# --- state families ---------------------------------------------------------


def ghz() -> StateVector:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0
    return StateVector.create(amps, (2, 2, 2))


def w() -> StateVector:
    """(|001> + |010> + |100>)/sqrt(3) on three qubits."""
    amps = np.zeros(8, dtype=complex)
    amps[1] = amps[2] = amps[4] = 1.0
    return StateVector.create(amps, (2, 2, 2))


def example3_family(n: int, m: int, beta) -> StateVector:
    """Three-term 2 x n x m family (beta1 |0, n-1, m-1> + beta2 |1, 0, m-1>
    + beta3 |1, n-1, 0>), normalized.

    The top-level labels are read as levels n-1 and m-1 of each qunit.
    After losing the qubit the residual is p |psi><psi| + (1-p) |n-1, m-1>
    <n-1, m-1| with |psi| proportional to beta2 |0, m-1> + beta3 |n-1, 0>
    (maximally entangled when |beta2| = |beta3|) and p = (|beta2|^2 +
    |beta3|^2) / sum |beta|^2. Any p != 0 leaves the residual entangled.
    """
    if not (2 <= n <= m):
        raise InvalidParamsError(f"family needs 2 <= n <= m, got ({n}, {m})")
    b1, b2, b3 = (complex(b) for b in beta)
    if b1 == 0 and b2 == 0 and b3 == 0:
        raise DegenerateFamilyError("all three coefficients vanish")
    amps = np.zeros(2 * n * m, dtype=complex)
    amps[(n - 1) * m + (m - 1)] = b1
    amps[n * m + (m - 1)] = b2
    amps[n * m + (n - 1) * m] = b3
    return StateVector.create(amps, (2, n, m))


def observation1_family(
    n: int,
    alpha: float,
    beta: float,
    p: float,
    e_index: int = 0,
    eperp_index: int = 1,
    sign: int = 1,
) -> DensityMatrix:
    """p |psi><psi| + (1-p) I/n^2 with |psi> = alpha |e e'> +/- beta |e' e>.

    alpha^2 + beta^2 must be 1; e and e' are distinct basis levels of the
    n-dimensional parties. The symmetric n = 2 case is the Werner-type
    family whose entanglement threshold sits at p = 1/3.
    """
    if n < 2:
        raise InvalidParamsError(f"local dimension must be >= 2, got {n}")
    if not (0.0 <= p <= 1.0):
        raise InvalidParamsError(f"mixing probability must be in [0, 1], got {p}")
    if not abs(alpha * alpha + beta * beta - 1.0) <= 1e-12:     # NaN fails too
        raise InvalidParamsError("alpha^2 + beta^2 must equal 1")
    if sign not in (1, -1):
        raise InvalidParamsError(f"sign must be +1 or -1, got {sign}")
    if not (0 <= e_index < n and 0 <= eperp_index < n) or e_index == eperp_index:
        raise InvalidParamsError(
            f"need two distinct basis levels below {n}, got {e_index}, {eperp_index}")
    psi = np.zeros(n * n, dtype=complex)
    psi[e_index * n + eperp_index] = alpha
    psi[eperp_index * n + e_index] = sign * beta
    mat = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(n * n) / (n * n)
    # PSD for every p in [0, 1] and unit |psi|, so nothing is left to validate
    return DensityMatrix._trusted(mat, (n, n))


def tiles_state() -> DensityMatrix:
    """Rank-4 3 x 3 PPT entangled state built from the five-tile product basis.

    The residual of a 2 x 3 x 3 system whose entanglement survives as bound
    entanglement: the partial transpose is positive, but the Ky Fan
    criterion detects it.
    """
    e = np.eye(3)
    kets = [
        np.kron(e[0], e[0] - e[1]) / np.sqrt(2),
        np.kron(e[0] - e[1], e[2]) / np.sqrt(2),
        np.kron(e[2], e[1] - e[2]) / np.sqrt(2),
        np.kron(e[1] - e[2], e[0]) / np.sqrt(2),
        np.kron(e[0] + e[1] + e[2], e[0] + e[1] + e[2]) / 3.0,
    ]
    proj = sum(np.outer(k, k.conj()) for k in kets)
    return DensityMatrix.create((np.eye(9) - proj) / 4.0, (3, 3))


# --- sweeps and sampling -----------------------------------------------------


@dataclass
class SweepPoint:
    """One evaluated grid point; error text is set when the point failed."""

    params: dict
    report: RobustnessReport | None = None
    error: str | None = None


def point_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-point sub-seed; independent of evaluation order.

    :func:`fig1_scatter` does not build these: it computes each block's
    generator states at once, and they equal this sub-seed's
    ``generate_state(4, np.uint64)``, that is
    ``SeedSequence([seed & (2**63 - 1), index & (2**63 - 1)])``'s, bit for bit.
    """
    # SeedSequence wants non-negative entropy, so negative seeds are masked
    return np.random.SeedSequence([int(seed) & (2**63 - 1), int(index) & (2**63 - 1)])


def _point_observation1(params: dict, **kw) -> RobustnessReport:
    rho = observation1_family(
        int(params.get("n", 2)),
        float(params.get("alpha", np.sqrt(0.5))),
        float(params.get("beta", np.sqrt(0.5))),
        float(params["p"]),
        e_index=int(params.get("e_index", 0)),
        eperp_index=int(params.get("eperp_index", 1)),
        sign=int(params.get("sign", 1)),
    )
    return classify_residual(rho, input_info={"kind": "observation1", **params}, **kw)


def _point_example1(params: dict, **kw) -> RobustnessReport:
    t1 = float(params.get("t1", 0.0))
    t2 = float(params.get("t2", 0.0))
    t3 = float(params.get("t3", 0.0))
    if all(k in params for k in ("alpha1", "alpha2", "alpha3")):
        params["region"] = example1_region(
            t1, t2, t3, (params["alpha1"], params["alpha2"], params["alpha3"]))
    rho = build_example1_state(t1, t2, t3)
    return classify_residual(rho, input_info={"kind": "example1", **params}, **kw)


def _point_example3(params: dict, **kw) -> RobustnessReport:
    state = example3_family(
        int(params.get("n", 2)), int(params.get("m", 3)),
        (params.get("beta1", 0.0), params.get("beta2", 0.0), params.get("beta3", 0.0)))
    return classify_qubit_loss(state, **kw)


SWEEP_FAMILIES = {
    "observation1": _point_observation1,
    "example1": _point_example1,
    "example3": _point_example3,
}


def sweep(
    family: str,
    grid: dict,
    *,
    fixed: dict | None = None,
    **classify_kw,
) -> list[SweepPoint]:
    """Evaluate a state family over a cartesian parameter grid.

    ``grid`` maps parameter names to value sequences; ``fixed`` holds
    scalar parameters shared by every point. Points are evaluated in order,
    each classified with ``classify_kw`` (``seed`` and ``roof_budget``
    included). Per-point failures are recorded inline and the sweep continues.
    """
    if family not in SWEEP_FAMILIES:
        raise InvalidParamsError(
            f"unknown family {family!r}; expected one of {sorted(SWEEP_FAMILIES)}")
    builder = SWEEP_FAMILIES[family]
    if not grid:
        return []
    results: list[SweepPoint] = []
    for values in itertools.product(*grid.values()):
        params = dict(fixed or {})
        params.update(zip(grid, values))
        try:
            results.append(SweepPoint(params=params, report=builder(params, **classify_kw)))
        except QlossError as exc:
            results.append(SweepPoint(params=params, error=f"{type(exc).__name__}: {exc}"))
    return results


def _draw(rngs: Iterable[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """One two-qubit sample per generator in ``rngs``: the stack of 4x4
    complex Gaussian matrices and the stack of spectra, uniform on the simplex.

    Each generator draws one Gaussian block, whose first half is the real
    parts and second half the imaginary parts, then four standard
    exponentials. The spectrum is the exponentials over their sum, which is
    ``Generator.dirichlet(ones(4))`` bit for bit: numpy draws that as the
    same exponentials, sums them left to right and multiplies each by the
    reciprocal of the sum.
    """
    gauss, expo = [], []
    for rng in rngs:
        # normal, not standard_normal: its 0.0 + 1.0 * x turns a drawn -0.0 into +0.0
        gauss.append(rng.normal(size=(2, 4, 4)))
        expo.append(rng.standard_exponential(4))
    gauss, e = np.array(gauss), np.array(expo)
    total = ((e[:, 0] + e[:, 1]) + e[:, 2]) + e[:, 3]
    return gauss[:, 0] + 1j * gauss[:, 1], e * (1.0 / total)[:, None]


def _mixed(z: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Unnormalised mixed states: the Haar eigenbasis of each Gaussian matrix
    of the stack ``z`` with the eigenvalues in the matching row of ``spectra``."""
    u = numerics._phase_fixed_qr(z)
    return (u * spectra[..., None, :]) @ numerics.dagger(u)


def random_two_qubit_mixed(rng: np.random.Generator) -> DensityMatrix:
    """Random two-qubit mixed state: Haar eigenbasis, eigenvalues uniform on
    the simplex, drawn from ``rng`` as :func:`fig1_scatter` draws each sample:
    one Gaussian block, then four exponentials whose normalised values are
    the eigenvalues."""
    z, spectra = _draw([rng])
    return DensityMatrix.create(_mixed(z[0], spectra[0]), (2, 2))


#: Samples that fig1_scatter evaluates as one stack; bounds its working memory.
FIG1_BLOCK = 1024


def _multipliers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0 .. count, as a uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, np.uint32)[:, None]


# numpy's SeedSequence with its pool of 4 words. Its hash constants do not
# depend on the data: hashmix's run takes 4 calls to fill the pool and 12 to
# mix it, and generate_state hashes 8 words with a run of its own.
_HASHMIX = _multipliers(0x43B0D7E5, 0x931E8875, 16)
_GENERATE = _multipliers(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.array([0xCA01F9DD, 0x4973F715], np.uint32)
# [src, dst]: the hashmix call that mixes word src into word dst, calls
# 4 + 3 src .. 6 + 3 src in order of dst; the unused diagonal is 0
_MIX_CALL = np.array([[0 if dst == src else 4 + 3 * src + dst - (dst > src)
                       for dst in range(4)] for src in range(4)])
_MIX_XOR, _MIX_MULT = _HASHMIX[_MIX_CALL], _HASHMIX[_MIX_CALL + 1]


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 words: XOR with one constant, times the
    next, then fold the high half into the low half."""
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _block_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, 4) uint64 array whose row j is
    ``point_seed(seed, start + j).generate_state(4, np.uint64)``, computed
    by numpy's SeedSequence algorithm for the whole block at once.

    The pool is one row per word and one column per sample. Every integer
    operation is on uint32 arrays, which wrap silently, where numpy scalars
    would warn on overflow.
    """
    mask = 2**63 - 1
    seed = int(seed) & mask
    index = np.arange(start, stop, dtype=np.uint64) & np.uint64(mask)
    # the entropy words, low first: the seed's one or two, then the index's
    # one or two, zero-padded to the pool (so a missing high word is a 0)
    seed_words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((4, index.size), np.uint32)
    pool[:len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    pool[len(seed_words)] = index & np.uint64(0xFFFFFFFF)
    pool[len(seed_words) + 1] = index >> np.uint64(32)
    pool = _hash(pool, _HASHMIX[:4], _HASHMIX[1:5])
    # mix each word into the other three; the source row is left as it was
    for src in range(4):
        mixed = _MIX_L * pool - _MIX_R * _hash(pool[src], _MIX_XOR[src], _MIX_MULT[src])
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    state = _hash(np.concatenate([pool, pool]), _GENERATE[:8], _GENERATE[1:]).astype(np.uint64)
    # C order: PCG64 reads a row's memory as four words, whatever its strides
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


@functools.cache
def _state_seed() -> type:
    """An ``ISeedSequence`` that hands PCG64 a state from :func:`_block_seeds`.
    Made on first use, so that importing qloss does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds only the four uint64 words PCG64 asks for")
            return self.words

    return StateSeed


def fig1_scatter(samples: int, seed: int = 0) -> list[tuple[float, float]]:
    """(concurrence, negativity) pairs for seeded random two-qubit mixed states.

    Every point satisfies negativity <= concurrence. Sample i is drawn from
    its own generator seeded with the sub-seed (seed, i), so sample i is the
    same in every scatter of at least i + 1 samples with this seed, and it
    equals :func:`random_two_qubit_mixed` on that generator. Each block's
    generator states are computed at once, and equal bit for bit those of
    ``SeedSequence([seed & (2**63 - 1), i & (2**63 - 1)])``, which is
    :func:`point_seed`. Each sample takes
    one Gaussian block and four exponentials from its generator; its
    eigenvalues are the normalised exponentials, equal bit for bit to
    ``Generator.dirichlet(ones(4))``. The states are then built, validated
    and measured in stacks of up to ``FIG1_BLOCK`` samples, with the same
    arithmetic as the one-state functions.
    """
    if samples < 1:
        raise InvalidParamsError(f"samples must be >= 1, got {samples}")
    state_seed = _state_seed()
    pairs: list[tuple[float, float]] = []
    for start in range(0, samples, FIG1_BLOCK):
        stop = min(start + FIG1_BLOCK, samples)
        z, spectra = _draw(np.random.Generator(np.random.PCG64(state_seed(row)))
                           for row in _block_seeds(seed, start, stop))
        # checked Hermitian here, and PSD by the square root in stacked_wootters
        rho = normalize_density(_mixed(z, spectra))
        pairs.extend(zip(stacked_wootters(rho).tolist(), stacked_negativity(rho, (2, 2)).tolist()))
    return pairs
