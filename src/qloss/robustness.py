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

import itertools
import time
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
    """Deterministic per-point sub-seed; independent of evaluation order."""
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


def _ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix; the real parts are drawn before the imaginary parts."""
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def _mixed(z: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Unnormalised mixed states: the Haar eigenbasis of each Gaussian matrix
    of the stack ``z`` with the eigenvalues in the matching row of ``spectra``."""
    u = numerics._phase_fixed_qr(z)
    return (u * spectra[..., None, :]) @ numerics.dagger(u)


def _random_mixed(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One unnormalised mixed state; draws as :func:`fig1_scatter` does per sample."""
    z = _ginibre(dim, rng)
    return _mixed(z, rng.dirichlet(np.ones(dim)))


def random_two_qubit_mixed(rng: np.random.Generator) -> DensityMatrix:
    """Random two-qubit mixed state: Haar eigenbasis, eigenvalues uniform on
    the simplex."""
    return DensityMatrix.create(_random_mixed(4, rng), (2, 2))


#: Samples that fig1_scatter evaluates as one stack; bounds its working memory.
FIG1_BLOCK = 1024


def fig1_scatter(samples: int, seed: int = 0) -> list[tuple[float, float]]:
    """(concurrence, negativity) pairs for seeded random two-qubit mixed states.

    Every point satisfies negativity <= concurrence. Sample i is drawn from
    its own generator seeded with the sub-seed (seed, i), so sample i is the
    same in every scatter of at least i + 1 samples with this seed, and it
    equals :func:`random_two_qubit_mixed` on that generator. The states are
    then built, validated and measured in stacks of up to ``FIG1_BLOCK``
    samples, with the same arithmetic as the one-state functions.
    """
    if samples < 1:
        raise InvalidParamsError(f"samples must be >= 1, got {samples}")
    alpha = np.ones(4)
    pairs: list[tuple[float, float]] = []
    for start in range(0, samples, FIG1_BLOCK):
        count = min(FIG1_BLOCK, samples - start)
        z = np.empty((count, 4, 4), dtype=complex)
        spectra = np.empty((count, 4))
        for j in range(count):
            rng = np.random.default_rng(point_seed(seed, start + j))
            z[j] = _ginibre(4, rng)
            spectra[j] = rng.dirichlet(alpha)
        # checked Hermitian here, and PSD by the square root in stacked_wootters
        rho = normalize_density(_mixed(z, spectra))
        pairs.extend(zip(stacked_wootters(rho).tolist(), stacked_negativity(rho, (2, 2)).tolist()))
    return pairs
