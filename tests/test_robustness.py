"""End-to-end classification, state families, sweeps, and the scatter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloss import (
    Classification,
    DensityMatrix,
    RoofBudget,
    StateVector,
    Verdict,
    classify_qubit_loss,
    classify_residual,
    concurrence,
    concurrence_roof,
    density,
    example3_family,
    fig1_scatter,
    ghz,
    normal_form,
    observation1_family,
    parse_ket,
    partial_trace,
    point_seed,
    ppt_negativity,
    random_two_qubit_mixed,
    sweep,
    tiles_state,
    w,
    wootters_concurrence,
)
from qloss import bloch
from qloss.bloch import NF_MAX_ITER, NF_TOL
from qloss.cli import report_to_dict
from qloss.errors import (
    DegenerateFamilyError,
    InvalidParamsError,
    NotPSDError,
    RankDeficientError,
)
from qloss.robustness import FIG1_BLOCK
from qloss.states import _check_unit_psd, _gamma_residual, reduce_support

from oracles import negativity_oracle, random_pure, random_unitary_oracle

EX4 = parse_ket("|010> + |001> + |112> + |121>", (2, 3, 3))


def _measure(report, name):
    for measure in report.measures:
        if measure.name == name:
            return measure
    return None


def _criterion(report, name):
    for crit in report.criteria:
        if crit.name == name:
            return crit
    return None


def test_ghz_w_definitions():
    for state in (ghz(), w()):
        assert state.dims == (2, 2, 2)
        assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(1.0)
    assert ghz().amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert w().amplitudes[1] == pytest.approx(1 / np.sqrt(3))


def test_ghz_is_fragile_with_certificate():
    report = classify_qubit_loss(ghz())
    assert report.classification is Classification.FRAGILE
    assert _criterion(report, "ppt").verdict is Verdict.SEPARABLE
    assert _measure(report, "negativity").value <= 1e-10
    assert _measure(report, "concurrence").value <= 1e-10


def test_w_is_robust_with_known_values():
    report = classify_qubit_loss(w())
    assert report.classification is Classification.ROBUST
    assert _measure(report, "negativity").value == pytest.approx((np.sqrt(5) - 1) / 6,
                                                                 abs=1e-9)
    assert _measure(report, "concurrence").value == pytest.approx(2 / 3, abs=1e-9)


def test_four_term_state_is_robust():
    report = classify_qubit_loss(EX4)
    assert report.classification is Classification.ROBUST
    assert _measure(report, "negativity").value == pytest.approx(1 / (2 * np.sqrt(2)),
                                                                 abs=1e-9)
    assert report.normal_form_status == "diverged"
    assert report.input["dims"] == [2, 3, 3]


def test_report_structure_and_provenance():
    report = classify_qubit_loss(ghz())
    assert report.residual_dims == (2, 2) and report.reduced_dims == (2, 2)
    assert {"library_version", "seed", "rank_tol", "nf_tol"} <= report.provenance.keys()
    assert "total" in report.timings_ms
    names = [c.name for c in report.criteria]
    assert "ppt" in names and "ky_fan" in names
    assert [c.name for c in report.informational] == ["length_bound"]


def test_classification_matches_pooled_verdicts():
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = StateVector.create(random_pure(rng, 12), (2, 2, 3))
        report = classify_qubit_loss(state)
        detected = any(c.verdict is Verdict.DETECTED for c in report.criteria)
        certified = any(c.verdict is Verdict.SEPARABLE for c in report.criteria)
        if detected:
            assert report.classification is Classification.ROBUST
        elif certified:
            assert report.classification is Classification.FRAGILE
        else:
            assert report.classification is Classification.UNDETERMINED
        if _measure(report, "negativity").value > 1e-10:
            assert report.classification is Classification.ROBUST


def test_classification_is_lu_invariant():
    rng = np.random.default_rng(1)
    for state in (ghz(), w(), EX4):
        base = classify_qubit_loss(state).classification
        for _ in range(5):
            unitary = np.kron(random_unitary_oracle(rng, 2),
                              np.kron(random_unitary_oracle(rng, state.dims[1]),
                                      random_unitary_oracle(rng, state.dims[2])))
            rotated = StateVector.create(unitary @ state.amplitudes, state.dims,
                                         normalize=False)
            assert classify_qubit_loss(rotated).classification is base


def test_filtering_off_the_psd_cone_falls_back_to_ppt():
    # no rank-2 normal form exists for this 2x3x5 residual (3N/2 < M < 2N), so
    # filtering stops at step 0 and the PPT test decides
    rng = np.random.default_rng(11)
    for _ in range(3):
        amps = rng.normal(size=30) + 1j * rng.normal(size=30)
    report = classify_qubit_loss(StateVector.create(amps, (2, 3, 5)))
    assert report.classification is Classification.ROBUST
    assert report.normal_form_status == "diverged"
    assert _criterion(report, "ppt").verdict is Verdict.DETECTED


@pytest.mark.parametrize("dims", [(2, 3, 5), (2, 4, 7)])
def test_failed_filtering_keeps_its_iteration_count(dims):
    # 3N/2 < M < 2N: no rank-2 normal form exists, so filtering stops
    # before its first step and says why; the PPT test still decides
    rng = np.random.default_rng(11)
    size = int(np.prod(dims))
    for _ in range(3):
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    report = classify_qubit_loss(StateVector.create(amps, dims))
    assert report.normal_form_status == "diverged"
    assert report.nf_iterations == 0 and report.nf_stop == "no_normal_form"
    doc = report_to_dict(report)["normal_form"]
    assert doc == {"status": "diverged", "iterations": 0, "stop": "no_normal_form"}
    assert report.classification is Classification.ROBUST
    assert _criterion(report, "ppt").verdict is Verdict.DETECTED


def test_rank_deficient_normal_form_keeps_the_ppt_evidence(monkeypatch):
    want = classify_qubit_loss(EX4)

    def rank_deficient(*args, **kwargs):
        raise RankDeficientError("marginal is rank deficient")

    monkeypatch.setattr("qloss.robustness._normal_form_steps", rank_deficient)
    report = classify_qubit_loss(EX4)
    assert report.normal_form_status == "rank_deficient"
    assert report.nf_iterations is None and report.nf_stop is None
    assert _criterion(report, "ky_fan") is None and report.informational == []
    assert report.criteria == want.criteria[:1]
    assert report.criteria[0].verdict is Verdict.DETECTED
    assert report.classification is Classification.ROBUST
    assert report_to_dict(report)["normal_form"] == {
        "status": "rank_deficient", "iterations": None, "stop": None}


def _w_plus_1e6():
    amps = w().amplitudes.copy()
    amps[7] += 1e-6
    return StateVector.create(amps, (2, 2, 2))


def test_filtering_at_the_cap_reports_its_stop_reason(filtering_only):
    # W + 1e-6|111> has 3-tangle ~3e-6: above the W-class test, but so close
    # to the boundary of the normal forms that filtering runs to the cap
    g = _w_plus_1e6().amplitudes.reshape(2, 4).T
    report = classify_residual(DensityMatrix.create(g @ g.conj().T, (2, 2)))
    assert report.normal_form_status == "diverged"
    assert (report.nf_stop, report.nf_iterations) == ("cap", NF_MAX_ITER)
    doc = report_to_dict(report)["normal_form"]
    assert (doc["stop"], doc["iterations"]) == ("cap", NF_MAX_ITER)


def test_near_w_ket_reaches_its_normal_form_from_the_pencil():
    # the same state as a ket: its Gamma-block pencil is diagonalisable with
    # cond(V) ~ 760 < 1/sqrt(rank_tol), so no filtering step is needed
    report = classify_qubit_loss(_w_plus_1e6())
    assert report.normal_form_status == "converged" and report.nf_stop is None
    assert report.nf_iterations == 0
    assert _criterion(report, "ky_fan").verdict is Verdict.DETECTED


def _w_class_residuals():
    rng = np.random.default_rng(12)
    states = [w()]
    for n, m in [(2, 3), (3, 3), (3, 4)]:
        beta = rng.uniform(0.5, 1.5, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        states.append(example3_family(n, m, beta))
    # p|psi><psi| + (1-p)|11><11| with <00|psi> = 0: the pencil
    # det(s psi + t |11>) = s^2 det(psi) has a double root
    psi = np.array([0.0, np.cos(0.4), np.sin(0.4), 0.0])
    p = 0.7
    mix = p * np.outer(psi, psi) + (1 - p) * np.diag([0.0, 0.0, 0.0, 1.0])
    return states + [DensityMatrix.create(mix, (2, 2))]


def _classify_any(state):
    if isinstance(state, DensityMatrix):
        return classify_residual(state)
    return classify_qubit_loss(state)


@pytest.mark.parametrize("state", _w_class_residuals(),
                         ids=["w", "example3_2x3", "example3_3x3", "example3_3x4", "density"])
def test_w_class_residuals_stop_before_filtering(state, request):
    # a rank-2 two-qubit residual with zero 3-tangle, whose pencil is a
    # Jordan block, has no normal form reachable by filtering: it is
    # reported at step 0, where the loop would run to the cap, and nothing
    # else in the report moves
    report = _classify_any(state)
    assert report.reduced_dims == (2, 2)
    assert report.normal_form_status == "diverged"
    assert (report.nf_iterations, report.nf_stop) == (0, "no_normal_form")
    request.getfixturevalue("filtering_only")
    filtered = _classify_any(state)
    assert (filtered.nf_iterations, filtered.nf_stop) == (NF_MAX_ITER, "cap")
    assert report.classification is filtered.classification is Classification.ROBUST
    for name in ("negativity", "concurrence"):
        assert _measure(report, name) == _measure(filtered, name)
    assert report.criteria == filtered.criteria


@st.composite
def _pure_inputs(draw):
    """Gaussian 2 x N x M states, 2 <= N, M <= 6, under random local
    unitaries on all three parties."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
    local = np.kron(random_unitary_oracle(rng, 2),
                    np.kron(random_unitary_oracle(rng, n), random_unitary_oracle(rng, m)))
    return StateVector.create(local @ amps, (2, n, m))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_pure_inputs())
def test_pure_input_beyond_2x2_is_ppt_detected_and_never_undetermined(state):
    # a separable rank-2 state has both local ranks at most 2, and a PPT one
    # of rank at most its larger local rank is separable (Horodecki,
    # Lewenstein, Vidal and Cirac, PRA 62, 032310 (2000)): so a rank-2
    # residual that reduces to more than 2 x 2 is NPT
    report = classify_qubit_loss(state)
    n, m = report.reduced_dims
    if n * m > 4:
        assert _criterion(report, "ppt").verdict is Verdict.DETECTED
    assert report.classification is not Classification.UNDETERMINED


@st.composite
def _pure_inputs_of_every_class(draw):
    """2 x N x M states, 2 <= N, M <= 6: Gaussian, with a rank-1 residual
    (the qubit in a product), with a separable residual (a|0 b1 c1> + b|1 b2
    c2>, and |000> + |111>), and the three-term example-3 family."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["gaussian", "rank_one", "two_product", "ghz", "example3"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        amps = random_pure(rng, 2 * n * m)
    elif kind == "rank_one":
        amps = np.kron(random_pure(rng, 2), random_pure(rng, n * m))
    elif kind == "two_product":
        amps = sum(np.kron(np.eye(2)[q], np.kron(random_pure(rng, n), random_pure(rng, m)))
                   for q in range(2))
    elif kind == "ghz":
        amps = np.zeros(2 * n * m)
        amps[0] = amps[n * m + m + 1] = 1.0
    else:
        n, m = min(n, m), max(n, m)
        return example3_family(n, m, rng.uniform(0.5, 1.5, size=3)), kind
    return StateVector.create(amps, (2, n, m)), kind


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_pure_inputs_of_every_class(), st.integers(0, 2**32 - 1))
def test_negativity_and_classification_are_local_invariants(drawn, seed):
    # local unitaries on the three parties, and swapping the two qunits, leave
    # the residual's entanglement alone: the negativity moves by rounding only,
    # and the classification not at all
    state, kind = drawn
    _, n, m = state.dims
    rng = np.random.default_rng(seed)
    local = np.kron(random_unitary_oracle(rng, 2),
                    np.kron(random_unitary_oracle(rng, n), random_unitary_oracle(rng, m)))
    swapped = state.amplitudes.reshape(2, n, m).transpose(0, 2, 1).reshape(-1)
    report = classify_qubit_loss(state)
    want = Classification.FRAGILE if kind in ("two_product", "ghz") else Classification.ROBUST
    assert report.classification is want
    for image in (StateVector.create(local @ state.amplitudes, (2, n, m)),
                  StateVector.create(swapped, (2, m, n))):
        other = classify_qubit_loss(image)
        assert other.classification is report.classification
        assert abs(_measure(other, "negativity").value
                   - _measure(report, "negativity").value) <= 1e-10


@st.composite
def _ky_fan_routes(draw):
    """``(route, (n, m), state, images)`` for the three ways to a normal form,
    N, M <= 6: a Gaussian 2 x N x N ket (the N x N pencil), a Gaussian
    2 x N x M ket with N < M <= 2N and M - N dividing N (the balanced k L_eps
    state), and observation1 at n = 3 (filtering). ``images`` are the state
    under random local unitaries and with its qunits swapped."""
    route = draw(st.sampled_from(["pencil", "balanced", "filtering"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if route == "filtering":
        theta = draw(st.floats(0.1, np.pi / 2 - 0.1))
        p = draw(st.floats(0.05, 0.9))
        rho = observation1_family(3, np.cos(theta), np.sin(theta), p,
                                  sign=draw(st.sampled_from([1, -1])))
        local = np.kron(random_unitary_oracle(rng, 3), random_unitary_oracle(rng, 3))
        swapped = rho.matrix.reshape(3, 3, 3, 3).transpose(1, 0, 3, 2).reshape(9, 9)
        images = [DensityMatrix.create(local @ rho.matrix @ local.conj().T, (3, 3)),
                  DensityMatrix.create(swapped, (3, 3))]
        return route, (3, 3), rho, images
    if route == "pencil":
        n = m = draw(st.integers(2, 6))
    else:
        n, m = draw(st.sampled_from([(2, 3), (2, 4), (3, 4), (3, 6), (4, 5), (4, 6), (5, 6)]))
    state = StateVector.create(random_pure(rng, 2 * n * m), (2, n, m))
    local = np.kron(random_unitary_oracle(rng, 2),
                    np.kron(random_unitary_oracle(rng, n), random_unitary_oracle(rng, m)))
    swapped = state.amplitudes.reshape(2, n, m).transpose(0, 2, 1).reshape(-1)
    images = [StateVector.create(local @ state.amplitudes, (2, n, m)),
              StateVector.create(swapped, (2, m, n))]
    return route, (n, m), state, images


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_ky_fan_routes())
def test_ky_fan_statistic_is_a_local_invariant(drawn):
    # the normal form is unique up to local unitaries, and swapping the qunits
    # transposes the correlation matrix: neither moves its singular values.
    # The closed forms agree to rounding; filtering stops once the marginals
    # are within NF_TOL, so its statistic agrees to a small multiple of that
    route, dims, state, images = drawn
    report = _classify_any(state)
    assert report.normal_form_status == "converged" and report.reduced_dims == dims
    assert (report.nf_iterations > 0) is (route == "filtering")
    statistic = _criterion(report, "ky_fan").statistic
    for image in images:
        other = _classify_any(image)
        assert other.normal_form_status == "converged"
        assert other.nf_iterations == 0 or route == "filtering"
        tol = 100 * NF_TOL if route == "filtering" else 1e-10
        assert abs(_criterion(other, "ky_fan").statistic - statistic) <= tol


def test_converged_filtering_has_no_stop_reason():
    report = classify_qubit_loss(ghz())
    assert report.normal_form_status == "converged" and report.nf_stop is None
    assert report_to_dict(report)["normal_form"]["stop"] is None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12])
def test_ky_fan_runs_on_generic_2xNxN_input(n):
    rng = np.random.default_rng(n)
    amps = rng.normal(size=2 * n * n) + 1j * rng.normal(size=2 * n * n)
    state = StateVector.create(amps, (2, n, n))
    report = classify_qubit_loss(state)
    assert report.normal_form_status == "converged"
    assert _criterion(report, "ky_fan").verdict is Verdict.DETECTED
    filtered = normal_form(reduce_support(partial_trace(density(state), keep=(1, 2))))
    for marginal in (partial_trace(filtered, [0]), partial_trace(filtered, [1])):
        assert np.abs(marginal.matrix - np.eye(n) / n).max() <= NF_TOL


def test_classify_residual_decomposes_t_once(monkeypatch, filtering_only):
    # Ky Fan and the length bound read one singular-value pass of t
    import sys

    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "qloss.numerics":
            calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(2)
    state = StateVector.create(rng.normal(size=18) + 1j * rng.normal(size=18), (2, 3, 3))
    report = classify_residual(partial_trace(density(state), keep=(1, 2)))
    assert report.normal_form_status == "converged"
    assert [c.name for c in report.informational] == ["length_bound"]
    assert _criterion(report, "ky_fan") is not None
    assert calls == [(8, 8)]


def test_pencil_route_reads_the_singular_values_from_the_overlaps(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pencil route needs no Bloch decomposition")

    monkeypatch.setattr(bloch, "bloch_decompose", forbidden)
    monkeypatch.setattr(bloch, "correlation_svd", forbidden)
    rng = np.random.default_rng(2)
    state = StateVector.create(rng.normal(size=32) + 1j * rng.normal(size=32), (2, 4, 4))
    report = classify_qubit_loss(state)
    assert report.nf_iterations == 0
    assert _criterion(report, "ky_fan").verdict is Verdict.DETECTED


def _count_eigensolves(monkeypatch) -> list[int]:
    """Record the matrix size of every numpy eigensolve from now on."""
    sizes = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return sizes


def test_pure_input_pipeline_cost(monkeypatch):
    # the PPT test is the only NM x NM eigensolve, nothing after the
    # StateVector boundary validates a density matrix, and the 2NM x 2NM
    # projector is never formed
    import qloss.robustness
    import qloss.states

    def forbidden(*args, **kwargs):
        raise AssertionError("the residual is built from the Gamma blocks")

    for module in (qloss.states, qloss.robustness):
        for name in ("density", "partial_trace"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    rng = np.random.default_rng(4)
    state = StateVector.create(rng.normal(size=32) + 1j * rng.normal(size=32), (2, 4, 4))
    validations = []
    post_init = DensityMatrix.__post_init__

    def counting(self):
        validations.append(self.dims)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    sizes = _count_eigensolves(monkeypatch)
    report = classify_qubit_loss(state)
    assert report.normal_form_status == "converged"
    assert validations == []
    assert sizes.count(16) == 1 and max(sizes) == 16


def test_pure_residual_concurrence_skips_eigh_on_mixed_residual(monkeypatch):
    # the purity pre-test, on the N M x N M matrix of a dense state and on
    # the rank x rank G^dag G of a kept factor
    import qloss.numerics

    def forbidden(*args, **kwargs):
        raise AssertionError("an eigensolve on a mixed residual")

    monkeypatch.setattr(qloss.numerics, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    rho = observation1_family(3, np.sqrt(0.5), np.sqrt(0.5), 0.5)
    assert concurrence(rho, rank_tol=1e-10) is None
    rng = np.random.default_rng(5)
    g = 3.0 * random_pure(rng, 2 * 3 * 4).reshape(12, 2)    # proportional, not normalized
    residual = DensityMatrix._trusted(g @ g.conj().T, (3, 4), factor=g)
    assert concurrence(residual, rank_tol=1e-10) is None


def test_pure_residual_concurrence_is_exact():
    state = parse_ket("|000> + |011> + |022>", (2, 3, 3))
    report = classify_qubit_loss(state)
    measure = _measure(report, "concurrence")
    assert measure.value == pytest.approx(2 / np.sqrt(3), abs=1e-12)
    assert measure.kind == "exact"
    assert measure.notes == "pure residual"
    # the pure rule runs before the roof, so a budget changes nothing
    budgeted = classify_qubit_loss(state, roof_budget=RoofBudget(restarts=1, iterations=1))
    assert _measure(budgeted, "concurrence") == measure
    dense = concurrence(partial_trace(density(state), keep=(1, 2)))
    assert (dense.kind, dense.notes) == ("exact", "pure residual")
    assert dense.value == pytest.approx(measure.value, abs=1e-12)


def test_roof_ensemble_follows_rank_tol():
    # eigenvalues (0.807, 0.193, 3.1e-7): rank 3 at the default rank_tol, rank 2
    # at 1e-4, so the roof's ensemble (rank + 2) is 5 and 4
    rng = np.random.default_rng(21)
    u = random_unitary_oracle(rng, 9)
    spectrum = np.zeros(9)
    spectrum[:3] = [0.807, 0.193, 3.1e-7]
    rho = DensityMatrix.create((u * spectrum) @ u.conj().T, (3, 3))
    budget = RoofBudget(restarts=2, iterations=20)
    for rank_tol, ensemble in [(1e-4, 4), (1e-10, 5)]:
        report = classify_residual(rho, rank_tol=rank_tol, roof_budget=budget)
        assert report.reduced_dims == (3, 3)
        roof = _measure(report, "concurrence")
        assert roof.kind == "upper_bound"
        assert roof.notes.endswith(f"ensemble={ensemble}")


def test_roof_ensemble_from_the_gamma_factor_matches_the_dense_one():
    # with no restarts the roof reads its starting ensemble only, which does not
    # depend on the phases of the factor's columns
    rng = np.random.default_rng(22)
    budget = RoofBudget(restarts=0)
    for n, m in [(3, 3), (3, 4), (4, 5)]:
        state = StateVector.create(random_pure(rng, 2 * n * m), (2, n, m))
        factored = concurrence_roof(_gamma_residual(state), budget)
        dense = concurrence_roof(partial_trace(density(state), keep=(1, 2)), budget)
        assert factored.notes == dense.notes
        assert factored.value == pytest.approx(dense.value, abs=1e-12)


def test_swapped_dims_give_same_classification():
    rng = np.random.default_rng(2)
    state = StateVector.create(random_pure(rng, 2 * 4 * 3), (2, 4, 3))
    report = classify_qubit_loss(state)
    assert report.input["swapped"] is True
    assert report.residual_dims == (3, 4)
    permuted = state.amplitudes.reshape(2, 4, 3).transpose(0, 2, 1).reshape(-1)
    direct = classify_qubit_loss(StateVector.create(permuted, (2, 3, 4), normalize=False))
    assert report.classification is direct.classification
    # the swap is the permuted ket's residual: every statistic agrees bit for bit
    swapped, unswapped = report_to_dict(report), report_to_dict(direct)
    assert swapped["input"].pop("swapped") is True
    assert unswapped["input"].pop("swapped") is False
    assert swapped == unswapped


# --- example3 family ----------------------------------------------------------


def test_example3_pure_maximally_entangled_residual():
    report = classify_qubit_loss(example3_family(3, 3, (0, 1, 1)))
    assert report.classification is Classification.ROBUST
    assert report.reduced_dims == (2, 2)
    assert _measure(report, "negativity").value == pytest.approx(0.5, abs=1e-9)


def test_example3_product_residual_is_fragile():
    report = classify_qubit_loss(example3_family(3, 3, (1, 0, 0)))
    assert report.classification is Classification.FRAGILE
    assert report.reduced_dims == (1, 1)


def test_example3_balanced_point():
    report = classify_qubit_loss(example3_family(3, 3, (1, 1, 1)))
    assert report.classification is Classification.ROBUST
    # p = 2/3 mixture of a maximally entangled state with an orthogonal
    # product state: same PT block structure as the W residual
    assert _measure(report, "negativity").value == pytest.approx((np.sqrt(5) - 1) / 6,
                                                                 abs=1e-9)


def test_example3_respects_label_convention():
    state = example3_family(3, 4, (0, 0, 1))
    # single term |1, n-1, 0>
    assert state.amplitudes[12 + 2 * 4] == pytest.approx(1.0)


def test_example3_errors():
    with pytest.raises(DegenerateFamilyError):
        example3_family(3, 3, (0, 0, 0))
    with pytest.raises(InvalidParamsError):
        example3_family(4, 3, (1, 1, 1))
    with pytest.raises(InvalidParamsError):
        example3_family(1, 3, (1, 1, 1))


# --- observation1 family --------------------------------------------------------


def test_observation1_above_threshold_is_entangled():
    s = np.sqrt(0.5)
    rho = observation1_family(2, s, s, 0.5)
    assert negativity_oracle(rho.matrix, 2, 2) > 1e-6
    assert classify_residual(rho).classification is Classification.ROBUST


def test_observation1_below_threshold_is_fragile():
    s = np.sqrt(0.5)
    rho = observation1_family(2, s, s, 0.2)
    report = classify_residual(rho)
    assert report.classification is Classification.FRAGILE
    assert _criterion(report, "ppt").verdict is Verdict.SEPARABLE


def test_observation1_identity_point():
    rho = observation1_family(2, np.sqrt(0.5), np.sqrt(0.5), 0.0)
    np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)


def test_observation1_sign_and_levels():
    rho = observation1_family(3, 0.6, 0.8, 1.0, e_index=0, eperp_index=2, sign=-1)
    psi = np.zeros(9, dtype=complex)
    psi[2] = 0.6
    psi[6] = -0.8
    np.testing.assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_observation1_family_is_the_state_create_makes(n):
    # built unchecked, since its checked parameters make a PSD matrix: equal,
    # bit for bit, to DensityMatrix.create of the same matrix, and valid
    for p in (0.0, 1e-12, 0.5, 1.0):
        for alpha, beta in ((1.0, 0.0), (0.6, 0.8)):
            for sign in (1, -1):
                rho = observation1_family(n, alpha, beta, p, sign=sign)
                psi = np.zeros(n * n, dtype=complex)
                psi[1] = alpha
                psi[n] = sign * beta
                mat = p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(n * n) / (n * n)
                want = DensityMatrix.create(mat, (n, n))
                assert rho.dims == want.dims == (n, n)
                assert np.array_equal(rho.matrix, want.matrix)
                assert np.array_equal(np.signbit(rho.matrix.view(np.float64)),
                                      np.signbit(want.matrix.view(np.float64)))
                assert rho._built and not rho.matrix.flags.writeable
                _check_unit_psd(rho.matrix)


def test_observation1_invalid_params():
    s = np.sqrt(0.5)
    with pytest.raises(InvalidParamsError):
        observation1_family(2, 0.9, 0.9, 0.5)           # not normalized
    with pytest.raises(InvalidParamsError):
        observation1_family(2, s, s, 1.5)               # p out of range
    with pytest.raises(InvalidParamsError):
        observation1_family(2, s, s, 0.5, e_index=1, eperp_index=1)
    with pytest.raises(InvalidParamsError):
        observation1_family(2, s, s, 0.5, sign=2)
    for alpha, beta in [(np.nan, np.nan), (np.inf, np.nan)]:    # NaN is not normalized
        with pytest.raises(InvalidParamsError, match="alpha\\^2 \\+ beta\\^2 must equal 1"):
            observation1_family(2, alpha, beta, 0.5)


# --- tiles state -----------------------------------------------------------------


def test_tiles_state_construction():
    rho = tiles_state()
    assert rho.matrix.trace().real == pytest.approx(1.0)
    w_ = np.linalg.eigvalsh(rho.matrix)
    assert w_.min() >= -1e-12
    assert int((w_ > 1e-10).sum()) == 4


def test_tiles_state_is_bound_entangled_and_detected():
    report = classify_residual(tiles_state())
    assert _measure(report, "negativity").value <= 1e-10
    kf = _criterion(report, "ky_fan")
    assert kf.statistic > 16 / 9
    assert report.classification is Classification.ROBUST


# --- sweeps ----------------------------------------------------------------------


def test_sweep_observation1_boundary():
    grid = {"p": [round(0.30 + 0.01 * i, 4) for i in range(7)]}
    points = sweep("observation1", grid, fixed={"n": 2})
    labels = [p.report.classification for p in points]
    assert labels[0] is Classification.FRAGILE
    assert labels[-1] is Classification.ROBUST
    flips = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
    assert len(flips) == 1
    boundary = (grid["p"][flips[0] - 1] + grid["p"][flips[0]]) / 2
    assert abs(boundary - 1 / 3) <= 0.01


def test_sweep_empty_grid():
    assert sweep("observation1", {}) == []
    assert sweep("observation1", {"p": []}) == []


def test_sweep_unknown_family():
    with pytest.raises(InvalidParamsError):
        sweep("nosuch", {"p": [0.5]})


def test_sweep_records_errors_inline():
    points = sweep("example1", {"t1": [0.1, 2.0], "t2": [0.0], "t3": [0.0]})
    assert points[0].error is None and points[0].report is not None
    assert points[1].error is not None and "NotPSD" in points[1].error
    assert points[1].params["t1"] == 2.0


def test_sweep_example1_region_points_are_ppt():
    grid = {"t1": [0.0, 0.1], "t2": [0.05], "t3": [0.1]}
    points = sweep("example1", grid,
                   fixed={"alpha1": 0.5, "alpha2": 0.5, "alpha3": 0.5})
    for point in points:
        assert point.params["region"] is True
        assert _measure(point.report, "negativity").value <= 1e-10
    assert [p.params["t1"] for p in points] == [0.0, 0.1]


def test_sweep_example3():
    # beta2 = 0 leaves a mixture of two product states; beta2 = 1 restores
    # the maximally entangled component
    points = sweep("example3", {"beta2": [0.0, 1.0]},
                   fixed={"n": 3, "m": 3, "beta1": 1.0, "beta3": 1.0})
    assert points[0].report.classification is Classification.FRAGILE
    assert points[1].report.classification is Classification.ROBUST


def test_sweep_point_depends_only_on_its_value_and_index():
    values = [0.1, 0.2, 0.5, 0.9]
    points = sweep("observation1", {"p": values}, fixed={"n": 2}, seed=4)
    for value, point in zip(values, points):
        alone = sweep("observation1", {"p": [value]}, fixed={"n": 2}, seed=4)[0]
        assert point.params == alone.params
        assert point.report.provenance["seed"] == 4  # the seed reaches the classifier
        assert point.report.classification is alone.report.classification
        assert (_measure(point.report, "negativity").value
                == _measure(alone.report, "negativity").value)


# --- scatter ---------------------------------------------------------------------


def test_fig1_scatter_property_and_determinism():
    pairs = fig1_scatter(200, seed=7)
    assert len(pairs) == 200
    for c, n in pairs:
        assert n <= c + 1e-9
    again = fig1_scatter(200, seed=7)
    assert pairs == again
    different = fig1_scatter(200, seed=8)
    assert pairs != different


def test_fig1_scatter_is_prefix_stable():
    assert fig1_scatter(32, seed=3)[:16] == fig1_scatter(16, seed=3)


def test_fig1_scatter_matches_per_sample_kernels_across_blocks():
    seed = 5
    pairs = fig1_scatter(FIG1_BLOCK + 3, seed=seed)
    expected = []
    for index in range(FIG1_BLOCK + 3):
        rho = random_two_qubit_mixed(np.random.default_rng(point_seed(seed, index)))
        expected.append((wootters_concurrence(rho), ppt_negativity(rho)[1].value))
    assert pairs == expected
    values = np.array(pairs)
    assert np.any(values == 0.0)
    assert not np.any(np.signbit(values))


def test_random_two_qubit_mixed_validates_once(monkeypatch):
    calls = []
    post_init = DensityMatrix.__post_init__

    def counting(self):
        calls.append(self.dims)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    rho = random_two_qubit_mixed(np.random.default_rng(0))
    assert rho.dims == (2, 2)
    assert calls == [(2, 2)]


def test_fig1_block_takes_three_eigensolves(monkeypatch):
    sizes = _count_eigensolves(monkeypatch)
    fig1_scatter(50)
    assert sizes == [4, 4, 4]


def test_fig1_block_with_a_non_psd_member_raises(monkeypatch):
    import qloss.robustness

    mixed = qloss.robustness._mixed

    def one_bad(z, spectra):
        out = mixed(z, spectra)
        out[3] = np.diag([1.0, 0.5, 0.5, -0.1])
        return out

    monkeypatch.setattr(qloss.robustness, "_mixed", one_bad)
    with pytest.raises(NotPSDError):
        fig1_scatter(10)


def test_fig1_scatter_validates_samples():
    with pytest.raises(InvalidParamsError):
        fig1_scatter(0)


def test_fig1_closed_form_corners():
    bell = density(StateVector.create([1, 0, 0, 1], (2, 2)))
    from qloss import ppt_negativity
    assert wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    assert ppt_negativity(bell)[1].value == pytest.approx(0.5, abs=1e-12)
    separable = DensityMatrix.create(np.eye(4), (2, 2))
    assert wootters_concurrence(separable) == 0.0
    assert ppt_negativity(separable)[1].value == 0.0


def test_point_seed_is_stable():
    a = np.random.default_rng(point_seed(7, 3)).normal(size=4)
    b = np.random.default_rng(point_seed(7, 3)).normal(size=4)
    assert np.array_equal(a, b)
