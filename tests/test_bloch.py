"""Bloch decomposition, reconstruction, normal form, correlation SVD."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qloss import (
    DensityMatrix,
    StateVector,
    bloch_decompose,
    build_example1_state,
    classify_qubit_loss,
    classify_residual,
    correlation_svd,
    density,
    ghz,
    ky_fan_norm,
    normal_form,
    observation1_family,
    parse_ket,
    partial_trace,
    reconstruct,
    tiles_state,
    w,
)
from qloss import bloch
from qloss.bloch import NF_MAX_ITER, NF_TOL, PENCIL_NOTE, _kronecker, _normal_form_steps
from qloss.criteria import Verdict, kf_criterion
from qloss.cli import report_to_dict
from qloss.errors import NoConvergenceError, NotPSDError, RankDeficientError
from qloss.numerics import RANK_TOL
from qloss.states import _gamma_residual
from qloss.su_basis import generators

from oracles import (
    bloch_t_oracle,
    ky_fan_oracle,
    negativity_oracle,
    ptrace_brute,
    random_density_oracle,
    random_unitary_oracle,
    realignment_rate,
    sinkhorn_oracle,
    three_tangle,
)

BELL = density(StateVector.create([1, 0, 0, 1], (2, 2)))


def _residual(state):
    return partial_trace(density(state), keep=(1, 2))


def test_maximally_mixed_has_null_bloch_form():
    rho = DensityMatrix.create(np.eye(6), (2, 3))
    form = bloch_decompose(rho)
    np.testing.assert_allclose(form.a, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(form.b, np.zeros(8), atol=1e-14)
    np.testing.assert_allclose(form.t, np.zeros((3, 8)), atol=1e-14)


def test_bell_correlation_matrix():
    form = bloch_decompose(BELL)
    np.testing.assert_allclose(form.a, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(form.b, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(form.t, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_correlation_matrix_matches_trace_oracle():
    rng = np.random.default_rng(0)
    rho = DensityMatrix.create(random_density_oracle(rng, 6), (2, 3))
    form = bloch_decompose(rho)
    want = bloch_t_oracle(rho.matrix, generators(2).matrices, generators(3).matrices)
    np.testing.assert_allclose(form.t, want, atol=1e-12)
    assert np.abs(form.t.imag).max() == 0.0 if np.iscomplexobj(form.t) else True


def test_correlation_matrix_matches_generator_traces_3x4():
    rng = np.random.default_rng(5)
    rho = DensityMatrix.create(random_density_oracle(rng, 12), (3, 4))
    gl, gr = generators(3).stacked(), generators(4).stacked()
    want = np.array([[np.trace(rho.matrix @ np.kron(g, h)).real for h in gr] for g in gl])
    np.testing.assert_allclose(bloch_decompose(rho).t, want, atol=1e-12)


def test_tiles_ky_fan_norm_recomputed_value():
    # frozen from an independent recomputation under this basis normalization;
    # the originally reported 3.1603 corresponds to the 1/(NM)-prefactor
    # convention (exact ratio NM/4), see the acceptance suite
    form = bloch_decompose(tiles_state())
    assert ky_fan_norm(form.t) == pytest.approx(1.4045621763602232, abs=1e-9)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)])
def test_reconstruction_round_trip(dims):
    rng = np.random.default_rng(sum(dims))
    rho = DensityMatrix.create(random_density_oracle(rng, int(np.prod(dims))), dims)
    form = bloch_decompose(rho)
    np.testing.assert_allclose(reconstruct(form), rho.matrix, atol=1e-10)
    # vector length bounds for marginal Bloch vectors
    n, m = dims
    assert np.linalg.norm(form.a) <= np.sqrt(2 * (n - 1) / n) + 1e-10
    assert np.linalg.norm(form.b) <= np.sqrt(2 * (m - 1) / m) + 1e-10


def test_marginals_of_product_state():
    rng = np.random.default_rng(1)
    rho_a = random_density_oracle(rng, 2)
    rho_b = random_density_oracle(rng, 3)
    rho = DensityMatrix.create(np.kron(rho_a, rho_b), (2, 3))
    got_a, got_b = partial_trace(rho, [0]), partial_trace(rho, [1])
    np.testing.assert_allclose(got_a.matrix, rho_a, atol=1e-12)
    np.testing.assert_allclose(got_b.matrix, rho_b, atol=1e-12)


def test_marginals_of_bell_are_maximally_mixed():
    got_a, got_b = partial_trace(BELL, [0]), partial_trace(BELL, [1])
    np.testing.assert_allclose(got_a.matrix, np.eye(2) / 2, atol=1e-12)
    np.testing.assert_allclose(got_b.matrix, np.eye(2) / 2, atol=1e-12)


def test_marginals_of_w_residual():
    residual = _residual(w())
    got_a, got_b = partial_trace(residual, [0]), partial_trace(residual, [1])
    np.testing.assert_allclose(got_a.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)
    np.testing.assert_allclose(got_b.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_normal_form_fixed_point():
    rho = build_example1_state(0.2, 0.2, 0.2)
    filtered = normal_form(rho)
    np.testing.assert_allclose(filtered.matrix, rho.matrix, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4)])
def test_normal_form_whitens_marginals(dims):
    rng = np.random.default_rng(sum(dims) + 7)
    for _ in range(5):
        rho = DensityMatrix.create(
            random_density_oracle(rng, int(np.prod(dims)), min_eig=0.01), dims)
        filtered = normal_form(rho)
        got_a, got_b = partial_trace(filtered, [0]), partial_trace(filtered, [1])
        assert np.abs(got_a.matrix - np.eye(dims[0]) / dims[0]).max() <= 1e-8
        assert np.abs(got_b.matrix - np.eye(dims[1]) / dims[1]).max() <= 1e-8
        form = bloch_decompose(filtered)
        assert np.abs(form.a).max() <= 1e-8 and np.abs(form.b).max() <= 1e-8


def test_normal_form_preserves_ppt_verdict():
    rng = np.random.default_rng(2)
    flips = 0
    for _ in range(25):
        rho = DensityMatrix.create(random_density_oracle(rng, 4, min_eig=0.01), (2, 2))
        filtered = normal_form(rho)
        before = negativity_oracle(rho.matrix, 2, 2) > 1e-10
        after = negativity_oracle(filtered.matrix, 2, 2) > 1e-10
        flips += before != after
    assert flips == 0


def test_normal_form_rejects_rank_deficient_marginal():
    pure_product = density(StateVector.create([1, 0, 0, 0], (2, 2)))
    with pytest.raises(RankDeficientError):
        normal_form(pure_product)


def test_normal_form_reports_non_convergence(filtering_only):
    # the four-term residual, filtered although its pencil rules a normal
    # form out
    residual = _residual(parse_ket("|010> + |001> + |112> + |121>", (2, 3, 3)))
    with pytest.raises(NoConvergenceError) as err:
        normal_form(residual)
    # frozen marginals: the stall detector fires, the relaxation backs off
    assert err.value.reason == "stalled"
    assert err.value.iterations <= 40


def test_normal_form_iteration_count_exposed_internally():
    filtered, iterations = _normal_form_steps(tiles_state())
    assert iterations > 0
    got_a = partial_trace(filtered, [0])
    assert np.abs(got_a.matrix - np.eye(3) / 3).max() <= 1e-9


def _draw(seed, dims, index):
    """The ``index``-th Gaussian 2 x n x m draw of ``default_rng(seed)``, as
    the benchmark draws its states (one draw per shape in ``dims``)."""
    rng = np.random.default_rng(seed)
    for k, (n, m) in enumerate(dims):
        amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
        if k == index:
            return StateVector.create(amps, (2, n, m))


@pytest.mark.parametrize("state", [
    _draw(5, [(12, 12)], 0),
    _draw([4, 2], [(12, 12), (13, 13), (14, 14)], 2),
], ids=["2x12x12_rng5", "2x14x14_rng4_2"])
def test_relaxed_filtering_converges_where_unrelaxed_hits_the_cap(state, filtering_only):
    # both need more than NF_MAX_ITER unrelaxed steps
    report = classify_residual(_residual(state))
    assert report.normal_form_status == "converged"
    assert report.nf_iterations < NF_MAX_ITER
    assert "ky_fan" in [c.name for c in report.criteria]


def test_adapted_relaxation_converges_on_the_probe_misread_input(filtering_only):
    # the probe reads this input's rate too low; with the relaxation factor
    # fixed after it, the input needed 837 steps
    report = classify_residual(_residual(_draw([9, 2], [(12, 12)], 0)))
    assert report.normal_form_status == "converged"
    assert report.nf_iterations <= 250
    assert "ky_fan" in [c.name for c in report.criteria]


@pytest.mark.parametrize("index", [2, 12, 13])
def test_shapes_without_a_rank2_normal_form_stop_before_filtering(index):
    residual = _residual(_draw(11, [(3, 5)] * 14, index))
    with pytest.raises(NoConvergenceError) as err:
        _normal_form_steps(residual)
    assert (err.value.reason, err.value.iterations) == ("no_normal_form", 0)


@pytest.mark.parametrize("dims", [(3, 5), (4, 7), (5, 7), (7, 9)])
def test_rank2_residuals_never_reach_a_normal_form_when_3n_2_lt_m_lt_2n(
        dims, filtering_only):
    # pins King's criterion behind the no_normal_form rule, on shapes with
    # 3N/2 < M < 2N and on 5x7 and 7x9, where M - N does not divide N
    # either: with the pencil route off, neither the plain nor the relaxed
    # loop gets there, and the relaxed loop's back-off leaves the stall
    # detector working
    rng = np.random.default_rng(17)
    n, m = dims
    for _ in range(4):
        amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
        residual = _residual(StateVector.create(amps, (2, n, m)))
        assert not _kronecker(residual._gram_factor().reshape(n, m, 2), RANK_TOL).polystable
        assert sinkhorn_oracle(residual.matrix, dims, tol=NF_TOL)[0] is None
        with pytest.raises(NoConvergenceError) as err:
            _normal_form_steps(residual, tol=NF_TOL)
        assert err.value.reason == "stalled"


def test_filtering_within_the_probe_is_the_unrelaxed_loop_bit_for_bit():
    rho = observation1_family(3, np.sqrt(0.5), np.sqrt(0.5), 0.3)
    filtered, steps = _normal_form_steps(rho)
    want, want_steps = sinkhorn_oracle(rho.matrix, (3, 3))
    assert 0 < steps == want_steps <= 8
    assert filtered.matrix.tobytes() == want.tobytes()


@st.composite
def _filtering_inputs(draw):
    """Residuals of Gaussian 2 x N x M states, 2 <= N <= M <= min(2N, 8) (a
    larger M leaves a rank-deficient marginal), or n = 3 observation-1 states."""
    if draw(st.booleans()):
        p = draw(st.floats(0.0, 0.95))
        return observation1_family(3, np.sqrt(0.5), np.sqrt(0.5), p)
    n = draw(st.integers(2, 8))
    m = draw(st.integers(n, min(2 * n, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
    return _residual(StateVector.create(amps, (2, n, m)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_filtering_inputs())
def test_relaxed_filtering_never_needs_more_steps_than_unrelaxed(filtering_only, rho):
    want, want_steps = sinkhorn_oracle(rho.matrix, rho.dims)
    if want is None:
        return
    filtered, steps = _normal_form_steps(rho)
    assert steps <= want_steps
    got_kf = ky_fan_norm(bloch_decompose(filtered).t)
    want_kf = ky_fan_norm(bloch_decompose(DensityMatrix.create(want, rho.dims)).t)
    assert got_kf == pytest.approx(want_kf, abs=1e-8)


@pytest.mark.parametrize("dims", [(2, 3), (3, 4), (4, 4), (4, 6), (6, 8), (8, 8), (12, 12)])
def test_realignment_rate_is_the_unrelaxed_asymptotic_rate(dims):
    # filtering 1000x further takes log(1e-3) / log(rate) more plain steps
    n, m = dims
    rng = np.random.default_rng(3 + n * m)
    amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
    rho = _residual(StateVector.create(amps, (2, n, m)))
    sigma, steps = sinkhorn_oracle(rho.matrix, dims, max_iter=2000)
    _, more_steps = sinkhorn_oracle(rho.matrix, dims, tol=1e-12, max_iter=2000)
    rate = realignment_rate(sigma, dims)
    assert 0.5 < rate < 1.0
    assert more_steps - steps == pytest.approx(np.log(1e-3) / np.log(rate), abs=1.5)


@st.composite
def _normal_form_inputs(draw):
    """Residuals of Gaussian 2 x N x M states, 2 <= N <= M <= min(2N, 8),
    on the shapes that keep a rank-2 normal form possible."""
    n = draw(st.integers(2, 8))
    m = draw(st.sampled_from(
        [k for k in range(n, min(2 * n, 8) + 1) if k == n or n % (k - n) == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
    return _residual(StateVector.create(amps, (2, n, m)))


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_normal_form_inputs())
def test_adapted_relaxation_stays_near_the_best_fixed_factor(filtering_only, rho):
    want, _ = sinkhorn_oracle(rho.matrix, rho.dims, max_iter=2000)
    if want is None:
        return
    rate = realignment_rate(want, rho.dims)
    best = 2.0 / (1.0 + np.sqrt(1.0 - rate))
    _, best_steps = sinkhorn_oracle(rho.matrix, rho.dims, max_iter=2000, omega=best)
    filtered, steps = _normal_form_steps(rho)
    # the schedule starts at w = 1 and climbs to Young's factor over a few
    # 16-step windows, so it may take up to 3x the steps that the best fixed
    # factor takes from the start (2.6x at worst on 340 draws), plus the probe
    assert steps <= 3 * best_steps + 8
    got_kf = ky_fan_norm(bloch_decompose(filtered).t)
    want_kf = ky_fan_norm(bloch_decompose(DensityMatrix.create(want, rho.dims)).t)
    assert got_kf == pytest.approx(want_kf, abs=1e-8)


def _w_plus(eps):
    amps = w().amplitudes.copy()
    amps[7] += eps
    return StateVector.create(amps, (2, 2, 2))


@st.composite
def _three_qubit_states(draw):
    """Gaussian 2x2x2 states, W and GHZ under random local unitaries, or
    W + eps|111>."""
    kind = draw(st.sampled_from(["gaussian", "w", "ghz", "w_plus"]))
    if kind == "w_plus":
        return _w_plus(draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        return StateVector.create(rng.normal(size=8) + 1j * rng.normal(size=8), (2, 2, 2))
    u = [random_unitary_oracle(rng, 2) for _ in range(3)]
    amps = np.kron(u[0], np.kron(u[1], u[2])) @ (w() if kind == "w" else ghz()).amplitudes
    return StateVector.create(amps, (2, 2, 2))


def _stop(rho):
    """(iterations, stop reason) of filtering ``rho``; the reason is None on
    convergence."""
    try:
        return _normal_form_steps(rho)[1], None
    except NoConvergenceError as exc:
        return exc.iterations, exc.reason


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_three_qubit_states())
@example(_w_plus(0.0))
@example(_w_plus(1e-12))
@example(_w_plus(1e-8))
@example(_w_plus(1e-4))
@example(_w_plus(1e-2))
def test_three_qubit_pencil_stops_at_step_0_iff_it_has_a_jordan_block(state):
    # these draws keep their 3-tangle at most 1e-11 or at least 3e-8, far
    # from where a Jordan block stops being resolved (see below); no draw
    # is filtered
    residual = _residual(state)
    pencil = _kronecker(residual._gram_factor().reshape(2, 2, 2), RANK_TOL)
    assert pencil.jordan == (three_tangle(state.amplitudes) <= RANK_TOL)
    assert _stop(residual) == (0, "no_normal_form" if pencil.jordan else None)


@pytest.mark.parametrize("eps, stop", [
    (4e-11, "no_normal_form"), (5e-11, "no_normal_form"), (7e-11, None), (1e-10, None)])
def test_w_plus_eps_on_both_sides_of_the_jordan_boundary(eps, stop):
    # the eigenvector matrix of W + eps|111>'s pencil has condition number
    # 1/sqrt(rank_tol) at eps = 5.8e-11 (3-tangle 1.78 rank_tol): below it
    # the pencil has a Jordan block, above it the pencil route takes it
    report = classify_qubit_loss(_w_plus(eps))
    assert (report.nf_iterations, report.nf_stop) == (0, stop)
    assert 0.9 * RANK_TOL < three_tangle(_w_plus(eps).amplitudes) < 3.1 * RANK_TOL


def _ky_fan(report):
    return next(c for c in report.criteria if c.name == "ky_fan")


def _pencil_ky_fan(state):
    """The Ky Fan criterion of a pure input that takes the pencil route."""
    report = classify_qubit_loss(state)
    assert (report.normal_form_status, report.nf_iterations) == ("converged", 0)
    kf = _ky_fan(report)
    assert kf.notes.endswith("; " + PENCIL_NOTE)
    assert report.informational[0].notes.endswith("; " + PENCIL_NOTE)
    return kf


def _oracle_ky_fan(state):
    """Squared Ky Fan norm of the normal form by plain Sinkhorn scaling of the
    dense residual, run far below ``NF_TOL``, and loop-built generator traces."""
    _, n, m = state.dims
    g = state.amplitudes.reshape(2, n * m).T
    sigma, _ = sinkhorn_oracle(g @ g.conj().T, (n, m), tol=1e-13, max_iter=5000)
    assert sigma is not None
    return ky_fan_oracle(bloch_t_oracle(sigma, generators(n).matrices, generators(m).matrices))


@st.composite
def _pencil_inputs(draw):
    """Gaussian 2 x N x N states, 2 <= N <= 6: as drawn, under random local
    unitaries on all three parties, with the two Gamma blocks mixed by a
    random unitary, or with a singular first block orthogonal to the second
    (so the residual's Gram factor starts with that singular block)."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["gaussian", "local_unitaries", "column_mix", "singular_g0"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    if kind == "local_unitaries":
        a, b = random_unitary_oracle(rng, n), random_unitary_oracle(rng, n)
        blocks = np.einsum("kl,lij->kij", random_unitary_oracle(rng, 2), a @ blocks @ b.T)
    elif kind == "column_mix":
        blocks = np.einsum("kl,lij->kij", random_unitary_oracle(rng, 2), blocks)
    elif kind == "singular_g0":
        blocks[0, :, -1] = 0.0
        blocks[1] -= np.vdot(blocks[0], blocks[1]) / np.vdot(blocks[0], blocks[0]) * blocks[0]
        blocks[0] *= 0.5 * np.linalg.norm(blocks[1]) / np.linalg.norm(blocks[0])
    return kind, StateVector.create(blocks.reshape(-1), (2, n, n))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_pencil_inputs())
def test_pencil_ky_fan_matches_the_sinkhorn_oracle(case):
    kind, state = case
    if kind == "singular_g0":
        _, n, _ = state.dims
        g = _gamma_residual(state)._gram_factor().reshape(n, n, 2)
        assert np.linalg.cond(g[..., 0]) > 1e12
    assert _pencil_ky_fan(state).statistic == pytest.approx(_oracle_ky_fan(state), rel=1e-10)


def test_pencil_takes_unbalanced_ghz_through_its_singular_first_block():
    # cos|000> + sin|111>: the residual is diagonal but not a normal form, and
    # its Gram factor's first column is the singular block |00>; the normal
    # form has orthogonal phi_1, phi_2, the GHZ value 1.0 against 1.0
    state = parse_ket("0.6|000> + 0.8|111>", (2, 2, 2))
    kf = _pencil_ky_fan(state)
    assert kf.statistic == pytest.approx(1.0, abs=1e-12)
    assert kf.verdict is Verdict.NOT_DETECTED
    assert kf.statistic == pytest.approx(_oracle_ky_fan(state), rel=1e-10)


def test_singular_and_near_w_pencils_stop_at_step_0():
    # a singular pencil: det(s g0 + t g1) vanishes for every s, t
    report = classify_qubit_loss(parse_ket("|010> + |001> + |112> + |121>", (2, 3, 3)))
    assert report.reduced_dims == (3, 3)
    assert (report.normal_form_status, report.nf_stop, report.nf_iterations) == (
        "diverged", "no_normal_form", 0)
    # W + eps|111>: a 3-tangle of 1.2e-10, above rank_tol, but the
    # eigenvector matrix V has condition number 1.2e5 > 1/sqrt(rank_tol)
    state = _w_plus(4e-11)
    assert RANK_TOL < three_tangle(state.amplitudes) < 2 * RANK_TOL
    report = classify_qubit_loss(state)
    assert (report.nf_stop, report.nf_iterations) == ("no_normal_form", 0)


@pytest.mark.parametrize("n, draws", [(2, 6), (3, 4), (4, 3), (6, 2), (9, 2), (16, 1), (24, 1)])
def test_pencil_ky_fan_detection_on_pure_nxn_input(n, draws):
    # for N >= 3 some pair of three vectors in C^2 has overlap >= 1/2, so Ky
    # Fan always detects; and wherever it detects, PPT detects too (a
    # PPT residual of rank 2 is separable)
    for seed in range(draws):
        report = classify_qubit_loss(_draw([n, seed], [(n, n)], 0))
        kf = _ky_fan(report)
        assert report.nf_iterations == 0 and kf.notes.endswith(PENCIL_NOTE)
        if n >= 3:
            assert kf.verdict is Verdict.DETECTED
        if kf.verdict is Verdict.DETECTED:
            ppt = next(c for c in report.criteria if c.name == "ppt")
            assert ppt.verdict is Verdict.DETECTED


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_pencil_normal_form_has_maximally_mixed_marginals(n):
    rho = _gamma_residual(_draw([n, 7], [(n, n)], 0))
    assert _normal_form_steps(rho)[1] == 0
    filtered = normal_form(rho)
    for side in (0, 1):
        marginal = partial_trace(filtered, [side]).matrix
        assert np.abs(marginal - np.eye(n) / n).max() <= 1e-12


def _kronecker_shapes():
    """(N, M) with 2 <= N < M <= 9, N <= 6 and M - N dividing N."""
    return [(n, m) for n in range(2, 7) for m in range(n + 1, min(2 * n, 9) + 1)
            if n % (m - n) == 0]


@st.composite
def _kronecker_inputs(draw):
    """Gaussian 2 x N x M states on the shapes of :func:`_kronecker_shapes`:
    as drawn, under random local unitaries on all three parties, or with the
    two Gamma blocks mixed by a random unitary."""
    n, m = draw(st.sampled_from(_kronecker_shapes()))
    kind = draw(st.sampled_from(["gaussian", "local_unitaries", "column_mix"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.normal(size=(2, n, m)) + 1j * rng.normal(size=(2, n, m))
    if kind == "local_unitaries":
        a, b = random_unitary_oracle(rng, n), random_unitary_oracle(rng, m)
        blocks = np.einsum("kl,lij->kij", random_unitary_oracle(rng, 2), a @ blocks @ b.T)
    elif kind == "column_mix":
        blocks = np.einsum("kl,lij->kij", random_unitary_oracle(rng, 2), blocks)
    return StateVector.create(blocks.reshape(-1), (2, n, m))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_kronecker_inputs())
def test_kronecker_pencil_ky_fan_matches_the_sinkhorn_oracle(state):
    assert _pencil_ky_fan(state).statistic == pytest.approx(_oracle_ky_fan(state), rel=1e-10)


L3_KET = "|000> + |011> + |022> + |101> + |112> + |123>"


def test_kronecker_pencil_takes_the_l3_ket_to_its_filtered_value(request):
    # the pencil is the single block L_3 = [I | 0] + t [0 | I] on 3 x 4
    state = parse_ket(L3_KET, (2, 3, 4))
    kf = _pencil_ky_fan(state)
    assert kf.statistic == pytest.approx(13.121638910345695, rel=1e-12)
    request.getfixturevalue("filtering_only")
    dense = classify_residual(_residual(state))
    assert dense.nf_iterations > 0
    assert kf.statistic == pytest.approx(_ky_fan(dense).statistic, rel=1e-12)


def test_kronecker_pencil_with_a_small_minimal_index_has_no_normal_form():
    # L_1 + L_3 on 4 x 6: M - N = 2 divides N, but the pencil is not 2 L_2
    ket = "|000> + |012> + |023> + |034> + |101> + |113> + |124> + |135>"
    report = classify_qubit_loss(parse_ket(ket, (2, 4, 6)))
    assert report.reduced_dims == (4, 6)
    assert (report.normal_form_status, report.nf_stop, report.nf_iterations) == (
        "diverged", "no_normal_form", 0)


def test_kronecker_pencil_reports_no_normal_form_where_m_minus_n_does_not_divide_n():
    # L_2 + L_3 on 5 x 7: polystable would need 2 | 5
    ket = ("|000> + |011> + |023> + |034> + |045> "
           "+ |101> + |112> + |124> + |135> + |146>")
    report = classify_qubit_loss(parse_ket(ket, (2, 5, 7)))
    assert report.reduced_dims == (5, 7)
    assert (report.nf_stop, report.nf_iterations) == ("no_normal_form", 0)


@pytest.mark.parametrize("ket, dims, pencil", [
    ("|010> + |001> + |112> + |121>", (2, 3, 3), "L1 + L1^T (singular pencil)"),
    ("|000> + |012> + |023> + |034> + |101> + |113> + |124> + |135>", (2, 4, 6), "L1 + L3"),
    ("|000> + |011> + |023> + |034> + |045> + |101> + |112> + |124> + |135> + |146>",
     (2, 5, 7), "L2 + L3"),
    ("|001> + |010> + |100>", (2, 2, 2), "regular 2 x 2 with a Jordan block"),
], ids=["four_term", "l1_l3", "l2_l3", "w"])
def test_no_normal_form_names_the_pencil(ket, dims, pencil):
    _, n, m = dims
    with pytest.raises(NoConvergenceError) as err:
        _normal_form_steps(_gamma_residual(parse_ket(ket, dims)))
    assert (err.value.reason, err.value.iterations) == ("no_normal_form", 0)
    assert str(err.value) == (
        f"no normal form of rank 2 is reachable on {n} x {m}: its pencil is {pencil}")


def _block_sum(blocks):
    """The pencil (g0, g1) that is the direct sum of ``blocks``, pairs of
    equally shaped matrices."""
    n, m = (sum(b[0].shape[axis] for b in blocks) for axis in (0, 1))
    g = np.zeros((n, m, 2), dtype=complex)
    row = col = 0
    for g0, g1 in blocks:
        rows, cols = g0.shape
        g[row:row + rows, col:col + cols] = np.stack([g0, g1], axis=-1)
        row, col = row + rows, col + cols
    return g


def _l_block(e):
    """L_e = [I | 0] + t [0 | I], of size e x (e + 1)."""
    return np.eye(e, e + 1), np.eye(e, e + 1, 1)


@st.composite
def _kronecker_sums(draw):
    """A pencil of at most 6 x 8 built from blocks L_e, L_e^T (e <= 3),
    Jordan blocks of size 2 or 3 and 1 x 1 blocks, all with distinct
    eigenvalues, under random invertible (P, Q) of condition number at
    most 4, with the structure it was built from."""
    right = draw(st.lists(st.integers(0, 3), max_size=3))
    left = draw(st.lists(st.integers(0, 3), max_size=3))
    jordan = draw(st.lists(st.integers(2, 3), max_size=2))
    diagonal = draw(st.integers(0, 4))
    regular = sum(jordan) + diagonal
    n = sum(right) + sum(left) + len(left) + regular
    m = sum(right) + len(right) + sum(left) + regular
    # at least one block that is not zero (L_0 and L_0^T are)
    assume(1 <= n <= 6 and 1 <= m <= 8 and n + m > len(right) + len(left))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = len(jordan) + diagonal
    lam = rng.uniform(0.5, 2.0, count) * np.exp(
        2j * np.pi * (np.arange(count) + rng.uniform(0.0, 0.5)) / count)
    blocks = [_l_block(e) for e in right] + [(a.T, b.T) for a, b in map(_l_block, left)]
    blocks += [(lam[i] * np.eye(size) + np.eye(size, k=1), np.eye(size))
               for i, size in enumerate(jordan)]
    blocks += [(lam[i:i + 1, None], np.ones((1, 1))) for i in range(len(jordan), count)]
    g = _block_sum(blocks)

    def invertible(dim):
        scale = rng.uniform(0.5, 2.0, dim)
        return random_unitary_oracle(rng, dim) * scale @ random_unitary_oracle(rng, dim)

    g = np.einsum("ij,jkl,km->iml", invertible(n), g, invertible(m))
    return g / np.linalg.norm(g), (tuple(sorted(right)), tuple(sorted(left)), regular,
                                   bool(jordan))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_kronecker_sums())
def test_kronecker_structure_of_a_direct_sum_of_blocks(case):
    g, want = case
    pencil = _kronecker(g, RANK_TOL)
    assert (pencil.right, pencil.left, pencil.regular, pencil.jordan) == want
    assert (pencil.phi is not None) == (not (want[0] or want[1] or want[3]))


@pytest.mark.parametrize("dims", [(1, 3), (2, 3), (3, 5), (4, 6), (5, 7), (4, 7), (6, 4), (3, 8)])
def test_toeplitz_ranks_and_the_staircase_agree_on_the_generic_structure(dims, monkeypatch):
    # a Gaussian N x M pencil, N < M, is (k - r) L_q + r L_(q+1) with
    # N = q k + r, k = M - N (transposed for N > M), whether small
    # block-Toeplitz matrices or the staircase read it
    n, m = dims
    small, k = min(dims), abs(m - n)
    q, r = divmod(small, k)
    blocks = (q,) * (k - r) + (q + 1,) * r
    want = (blocks, (), 0, False) if n < m else ((), blocks, 0, False)
    rng = np.random.default_rng(n * m)
    for _ in range(3):
        g = rng.normal(size=(n, m, 2)) + 1j * rng.normal(size=(n, m, 2))
        for up_to in (bloch._TOEPLITZ_UP_TO, 0):
            monkeypatch.setattr(bloch, "_TOEPLITZ_UP_TO", up_to)
            pencil = _kronecker(g, RANK_TOL)
            assert (pencil.right, pencil.left, pencil.regular, pencil.jordan) == want


def test_pencil_with_an_eigenvalue_at_every_mix_goes_down_the_staircase():
    # a diagonal 4 x 4 pencil with an eigenvalue where each of the four
    # mixed g0' is singular: the staircase takes one eigenvalue off at t = 0,
    # and its row of phi is (0, 1)
    c, s = np.array(bloch._PENCIL_MIXES).T
    g = np.stack([np.diag(s), np.diag(-c)], axis=-1) / 2.0
    pencil = _kronecker(g, RANK_TOL)
    assert (pencil.right, pencil.left, pencil.regular, pencil.jordan) == ((), (), 4, False)
    assert pencil.polystable
    # phi_i is (s_i, -c_i) up to a phase
    want = np.abs(np.conj(s)[:, None] * s + np.conj(c)[:, None] * c)
    got = np.abs(pencil.phi.conj() @ pencil.phi.T)
    assert np.sort(got, axis=None) == pytest.approx(np.sort(want, axis=None), abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 4), (4, 6), (6, 9), (4, 3)])
def test_pencil_routes_never_filter(dims, monkeypatch):
    # (4, 3) is an N > M residual, read transposed
    def refuse(*args):
        raise AssertionError("the pencil route filtered")
    monkeypatch.setattr(bloch.numerics, "_inv_sqrt_psd", refuse)
    n, m = dims
    for seed in range(3):
        rho = _gamma_residual(_draw([n * m, seed], [(n, m)], 0))
        assert _normal_form_steps(rho)[1] == 0


@pytest.mark.parametrize("dims", [(2, 2), (5, 5), (2, 3), (3, 4), (4, 8), (6, 8), (4, 3)])
def test_pencil_normal_form_is_a_unit_trace_hermitian_normal_form(dims):
    n, m = dims
    rho = _gamma_residual(_draw([n * m, 11], [(n, m)], 0))
    filtered = normal_form(rho)
    mat = filtered.matrix
    assert np.abs(mat - mat.conj().T).max() <= 1e-14
    assert abs(np.trace(mat) - 1.0) <= 1e-14
    for side, d in ((0, n), (1, m)):
        marginal = partial_trace(filtered, [side]).matrix
        assert np.abs(marginal - np.eye(d) / d).max() <= 1e-12


def test_kronecker_pencil_on_n_gt_m_matches_the_sinkhorn_oracle():
    state = _draw(3, [(6, 4)], 0)
    rho = _gamma_residual(state)
    filtered, steps = _normal_form_steps(rho)
    assert (steps, filtered.dims) == (0, (6, 4))
    csvd = bloch._normal_form_svd(filtered)
    assert csvd.notes == PENCIL_NOTE
    assert kf_criterion(csvd).statistic == pytest.approx(_oracle_ky_fan(state), rel=1e-10)


@st.composite
def _ket_inputs(draw):
    """Gaussian 2 x N x M states with N = M <= 6, on the shapes of
    :func:`_kronecker_shapes`, or on 2 x 4 x 4 with a second qunit that
    keeps 3 levels, whose residual reduces to 4 x 3 (N > M)."""
    kind = draw(st.sampled_from(["square", "kronecker", "n_gt_m"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "n_gt_m":
        blocks = rng.normal(size=(2, 4, 3)) + 1j * rng.normal(size=(2, 4, 3))
        blocks = blocks @ random_unitary_oracle(rng, 4)[:3]
        return StateVector.create(blocks.reshape(-1), (2, 4, 4))
    if kind == "square":
        n = m = draw(st.integers(2, 6))
    else:
        n, m = draw(st.sampled_from(_kronecker_shapes()))
    amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
    return StateVector.create(amps, (2, n, m))


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(_ket_inputs())
def test_ket_and_its_dense_residual_take_the_same_route(state):
    # the route depends on the residual's rank and pencil, not on whether
    # it kept the Gamma blocks as its factor
    ket = classify_qubit_loss(state)
    dense = classify_residual(_residual(state))
    assert ket.reduced_dims == dense.reduced_dims
    assert ((ket.normal_form_status, ket.nf_iterations, ket.nf_stop)
            == (dense.normal_form_status, dense.nf_iterations, dense.nf_stop))
    assert ket.classification is dense.classification
    assert _ky_fan(ket).statistic == pytest.approx(_ky_fan(dense).statistic, rel=1e-12)


@st.composite
def _normal_form_routes(draw):
    """``(route, state)`` for each route to a normal form: a Gaussian rank-2
    residual on N x N (``pencil``), one on a shape whose normal form is the
    balanced state (``balanced``), and a mixed state of full rank on up to
    3 x 4 (``filtering``)."""
    route = draw(st.sampled_from(["pencil", "balanced", "filtering"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if route == "filtering":
        dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
        return route, DensityMatrix.create(random_density_oracle(rng, dims[0] * dims[1]), dims)
    if route == "pencil":
        n = m = draw(st.integers(2, 6))
    else:
        n, m = draw(st.sampled_from(_kronecker_shapes()))
    amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
    return route, _gamma_residual(StateVector.create(amps, (2, n, m)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_normal_form_routes())
def test_a_converged_normal_form_has_maximally_mixed_marginals(case):
    # each route's normal form has marginals I/d to nf_tol, by the
    # brute-force partial trace; an N x N pencil form builds its matrix F F^dag
    # only when it is read (the balanced state's was read once, when cached)
    route, rho = case
    filtered, iterations = _normal_form_steps(rho)
    assert classify_residual(rho).normal_form_status == "converged"
    assert isinstance(filtered, bloch._PencilForm) == (route != "filtering")
    assert (iterations > 0) == (route == "filtering")
    if route == "pencil":
        assert "matrix" not in vars(filtered)
    if route != "filtering":
        factor = filtered._factor
        assert np.array_equal(filtered.matrix, factor @ factor.conj().T)
    assert filtered.dims == rho.dims
    n, m = rho.dims
    for side, d in ((0, n), (1, m)):
        marginal = ptrace_brute(filtered.matrix, (n, m), [side])
        assert np.abs(marginal - np.eye(d) / d).max() <= NF_TOL


def _rank3_residual():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    return DensityMatrix.create(a @ a.conj().T, (3, 3))


def _filter_failing_at(k, monkeypatch):
    """Make the k-th filter of a run (two per step, F_A then F_B) raise
    :class:`NotPSDError`, as a marginal that left the PSD cone does."""
    inv_sqrt_psd = bloch.numerics._inv_sqrt_psd
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == k:
            raise NotPSDError("negative eigenvalue")
        return inv_sqrt_psd(*args)

    monkeypatch.setattr(bloch.numerics, "_inv_sqrt_psd", failing)


@pytest.mark.parametrize("k", [1, 2, 3, 12])
def test_filtering_breakdown_reports_the_step_it_broke_at(k, monkeypatch):
    # the input needs 24 steps, so every k here falls inside the run
    _filter_failing_at(k, monkeypatch)
    with pytest.raises(NoConvergenceError) as err:
        _normal_form_steps(_rank3_residual())
    assert (err.value.reason, err.value.iterations) == ("breakdown", (k - 1) // 2)
    assert "broke down" in str(err.value)


def test_filtering_that_collapses_the_state_is_a_breakdown(monkeypatch):
    monkeypatch.setattr(bloch.numerics, "_inv_sqrt_psd", lambda h, *args: np.zeros_like(h))
    with pytest.raises(NoConvergenceError) as err:
        _normal_form_steps(_rank3_residual())
    assert (err.value.reason, err.value.iterations) == ("breakdown", 0)
    assert "collapsed" in str(err.value)


def test_filtering_breakdown_keeps_the_ppt_evidence(monkeypatch):
    rho = _rank3_residual()
    want = classify_residual(rho)
    _filter_failing_at(5, monkeypatch)
    report = classify_residual(rho)
    assert (report.normal_form_status, report.nf_stop, report.nf_iterations) == (
        "diverged", "breakdown", 2)
    assert report.criteria == want.criteria[:1]
    assert report.criteria[0].verdict is Verdict.DETECTED
    assert report.classification is want.classification
    assert report_to_dict(report)["normal_form"] == {
        "status": "diverged", "iterations": 2, "stop": "breakdown"}


def test_correlation_svd_zero_matrix():
    rho = DensityMatrix.create(np.eye(9), (3, 3))
    csvd = correlation_svd(bloch_decompose(rho))
    assert csvd.tau.sum() == pytest.approx(0.0, abs=1e-12)


def test_correlation_svd_bell():
    csvd = correlation_svd(bloch_decompose(BELL))
    np.testing.assert_allclose(csvd.tau, [1.0, 1.0, 1.0], atol=1e-12)


@st.composite
def _correlation_inputs(draw):
    """Residuals of Gaussian 2 x N x M states up to 2x6x6, or observation-1
    states at n = 2 and 3."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        p = draw(st.floats(0.0, 0.95))
        return observation1_family(n, np.sqrt(0.5), np.sqrt(0.5), p)
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=2 * n * m) + 1j * rng.normal(size=2 * n * m)
    return _residual(StateVector.create(amps, (2, n, m)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_correlation_inputs())
def test_correlation_svd_is_one_real_singular_value_pass(rho):
    form = bloch_decompose(rho)
    csvd = correlation_svd(form)
    assert csvd.dims == rho.dims
    assert csvd.tau.dtype == np.float64
    assert np.array_equal(csvd.tau, np.linalg.svd(form.t, compute_uv=False))
    assert kf_criterion(csvd).statistic == pytest.approx(ky_fan_oracle(form.t), rel=1e-12)


def test_ky_fan_norm_invariant_under_local_unitaries():
    rng = np.random.default_rng(4)
    rho = DensityMatrix.create(random_density_oracle(rng, 9), (3, 3))
    base = ky_fan_norm(bloch_decompose(rho).t)
    for _ in range(5):
        u = random_unitary_oracle(rng, 3)
        v = random_unitary_oracle(rng, 3)
        rotated = DensityMatrix.create(
            np.kron(u, v) @ rho.matrix @ np.kron(u, v).conj().T, (3, 3))
        assert ky_fan_norm(bloch_decompose(rotated).t) == pytest.approx(base, abs=1e-9)


def test_ghz_residual_is_normal_form_fixed_point():
    residual = _residual(ghz())
    filtered = normal_form(residual)
    np.testing.assert_allclose(filtered.matrix, residual.matrix, atol=1e-12)
    form = bloch_decompose(filtered)
    assert ky_fan_norm(form.t) == pytest.approx(1.0, abs=1e-12)
