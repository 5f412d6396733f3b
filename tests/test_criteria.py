"""Detection criteria and entanglement measures."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qloss import (
    DensityMatrix,
    RoofBudget,
    StateVector,
    Verdict,
    bloch_decompose,
    build_example1_state,
    concurrence,
    concurrence_pure,
    concurrence_roof,
    correlation_svd,
    density,
    example1_region,
    ghz,
    kf_criterion,
    length_bound_criterion,
    normal_form,
    parse_ket,
    partial_trace,
    ppt_negativity,
    tiles_state,
    w,
    wootters_concurrence,
)
from qloss import numerics
from qloss.criteria import stacked_negativity, stacked_wootters
from qloss.errors import NotHermitianError, NotPSDError, QlossError
from qloss.states import (
    _gamma_residual,
    normalize_density,
    parse_state_file,
    transpose_side,
)

from oracles import (
    negativity_oracle,
    random_density_oracle,
    random_pure,
    sample_example1_region,
    wootters_oracle,
)

BELL = density(StateVector.create([1, 0, 0, 1], (2, 2)))


def _residual(state):
    return partial_trace(density(state), keep=(1, 2))


def _werner(p):
    return DensityMatrix.create(p * BELL.matrix + (1 - p) * np.eye(4) / 4, (2, 2))


def _isotropic3(p):
    phi = np.zeros(9)
    phi[0] = phi[4] = phi[8] = 1 / np.sqrt(3)
    return DensityMatrix.create(p * np.outer(phi, phi) + (1 - p) * np.eye(9) / 9, (3, 3))


def _separable_mixture(rng, n, m, terms=4):
    p = rng.dirichlet(np.ones(terms))
    mat = sum(p[i] * np.kron(random_density_oracle(rng, n), random_density_oracle(rng, m))
              for i in range(terms))
    return DensityMatrix.create(mat, (n, m))


# --- Ky Fan criterion --------------------------------------------------------


def test_kf_maximally_mixed_not_detected():
    rho = DensityMatrix.create(np.eye(9), (3, 3))
    result = kf_criterion(correlation_svd(bloch_decompose(rho)))
    assert result.verdict is Verdict.NOT_DETECTED
    assert result.statistic == pytest.approx(0.0, abs=1e-12)


def test_kf_bell_detected():
    result = kf_criterion(correlation_svd(bloch_decompose(BELL)))
    assert result.statistic == pytest.approx(9.0, abs=1e-10)
    assert result.threshold == pytest.approx(1.0)
    assert result.verdict is Verdict.DETECTED


def test_kf_threshold_formula():
    rho = DensityMatrix.create(np.eye(12), (3, 4))
    result = kf_criterion(correlation_svd(bloch_decompose(rho)))
    assert result.threshold == pytest.approx(4 * 2 * 3 / 12)


def test_kf_deadband_on_boundary():
    # the 3x3 isotropic state at its separability boundary lands exactly on
    # the threshold; the deadband must keep it NotDetected
    result = kf_criterion(correlation_svd(bloch_decompose(_isotropic3(0.25))))
    assert result.statistic == pytest.approx(16 / 9, abs=1e-10)
    assert result.verdict is Verdict.NOT_DETECTED


def test_kf_never_certifies():
    rho = DensityMatrix.create(np.eye(4), (2, 2))
    result = kf_criterion(correlation_svd(bloch_decompose(rho)))
    assert result.verdict is not Verdict.SEPARABLE


def test_kf_no_false_positives_on_filtered_separable_mixtures():
    rng = np.random.default_rng(0)
    fired = 0
    for _ in range(500):
        rho = _separable_mixture(rng, 3, 3)
        filtered = normal_form(rho)
        result = kf_criterion(correlation_svd(bloch_decompose(filtered)))
        fired += result.verdict is Verdict.DETECTED
    assert fired == 0


# --- length bound ------------------------------------------------------------


def test_length_bound_zero_correlations():
    rho = DensityMatrix.create(np.eye(9), (3, 3))
    result = length_bound_criterion(correlation_svd(bloch_decompose(rho)))
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.verdict is Verdict.NOT_DETECTED


def test_length_bound_bell():
    result = length_bound_criterion(correlation_svd(bloch_decompose(BELL)))
    assert result.statistic == pytest.approx(3.0, abs=1e-10)
    assert result.verdict is Verdict.DETECTED


def test_length_bound_fires_on_separable_state():
    # the documented false positive that keeps this criterion informational:
    # the separable isotropic boundary state scores K = 4
    rho = _isotropic3(0.25)
    result = length_bound_criterion(correlation_svd(bloch_decompose(rho)))
    assert result.statistic == pytest.approx(4.0, abs=1e-9)
    assert result.verdict is Verdict.DETECTED
    assert "informational" in result.notes



@pytest.mark.parametrize("criterion", [kf_criterion, length_bound_criterion])
def test_normal_form_flag_is_keyword_only(criterion):
    # a call written for the old (csvd, dims) signature raises instead of
    # binding the dims tuple to anything
    csvd = correlation_svd(bloch_decompose(_isotropic3(0.25)))
    with pytest.raises(TypeError):
        criterion(csvd, (3, 3))

# --- PPT / negativity ----------------------------------------------------------


def test_ppt_four_term_residual():
    result, measure = ppt_negativity(_residual(parse_ket(
        "|010> + |001> + |112> + |121>", (2, 3, 3))))
    assert measure.value == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)
    assert result.verdict is Verdict.DETECTED


def test_ppt_certifies_ghz_residual():
    result, measure = ppt_negativity(_residual(ghz()))
    assert measure.value == pytest.approx(0.0, abs=1e-12)
    assert result.verdict is Verdict.SEPARABLE


def test_ppt_tiles_is_blind_but_undetermined():
    result, measure = ppt_negativity(tiles_state())
    assert measure.value <= 1e-10
    assert result.verdict is Verdict.NOT_DETECTED  # 3x3: bound entanglement possible


def test_ppt_w_residual_value():
    _, measure = ppt_negativity(_residual(w()))
    assert measure.value == pytest.approx((np.sqrt(5) - 1) / 6, abs=1e-12)


def test_ppt_trivial_side_certifies():
    rng = np.random.default_rng(1)
    mat = np.kron([[1.0]], random_density_oracle(rng, 7))
    result, measure = ppt_negativity(DensityMatrix.create(mat, (1, 7)))
    assert measure.value <= 1e-12
    assert result.verdict is Verdict.SEPARABLE


def test_negativity_matches_trace_norm_and_oracle():
    rng = np.random.default_rng(2)
    from qloss import partial_transpose, trace_norm
    for dims in ((2, 2), (2, 3), (3, 3), (2, 4)):
        for _ in range(250):
            rho = DensityMatrix.create(random_density_oracle(rng, int(np.prod(dims))), dims)
            _, measure = ppt_negativity(rho)
            via_norm = (trace_norm(partial_transpose(rho, 0)) - 1) / 2
            assert abs(measure.value - max(0.0, via_norm)) <= 1e-10
            assert measure.value == pytest.approx(
                negativity_oracle(rho.matrix, *dims), abs=1e-10)


def test_ppt_negativity_diagonalises_once(monkeypatch):
    import qloss.numerics
    calls = []
    eigh = qloss.numerics.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(qloss.numerics, "eigh", counting_eigh)
    _, measure = ppt_negativity(_residual(w()))
    assert measure.value == pytest.approx((np.sqrt(5) - 1) / 6, abs=1e-12)
    assert len(calls) == 1


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (5, 5), (5, 6), (6, 6), (12, 12)])
@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_negativity_on_both_sides_of_the_eigenvector_cut(dims, seed):
    # PT dimension 4 to 36, plus a 2x12x12 ket: up to 25 the spectrum is eigh's,
    # bit for bit; above 25 it comes without any eigenvector solve
    n, m = dims
    rng = np.random.default_rng(seed)
    rho = _residual(StateVector.create(random_pure(rng, 2 * n * m), (2, n, m)))
    w, _ = numerics.eigh(transpose_side(rho.matrix[None], dims, 0))
    via_eigh = -np.minimum(w, 0.0).sum(axis=-1)[0]
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name, solver):
        def call(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        _, measure = ppt_negativity(rho)
    assert measure.value == pytest.approx(negativity_oracle(rho.matrix, n, m), abs=1e-10)
    if n * m <= 25:
        assert measure.value == max(via_eigh, 0.0)
        assert calls == {"eigh": 1, "eigvalsh": 0}
    else:
        assert calls == {"eigh": 0, "eigvalsh": 1}


@pytest.mark.parametrize("dims", [(2, 2), (6, 6)])
def test_negativity_cross_check_raises_on_both_sides_of_the_cut(dims):
    # a stack with trace 2: the negative eigenvalues and the trace norm disagree by 1/2
    rng = np.random.default_rng(4)
    dim = dims[0] * dims[1]
    stack = 2.0 * np.stack([random_density_oracle(rng, dim) for _ in range(2)])
    with pytest.raises(QlossError, match="negativity cross-check failed"):
        stacked_negativity(stack, dims)


def test_negativity_vanishes_on_separable_mixtures():
    rng = np.random.default_rng(3)
    for _ in range(50):
        _, measure = ppt_negativity(_separable_mixture(rng, 2, 3))
        assert measure.value <= 1e-10


# --- concurrence ---------------------------------------------------------------


def test_concurrence_pure_product():
    assert concurrence_pure(StateVector.create([1, 0, 0, 0], (2, 2))).value == 0.0


def test_concurrence_pure_bell():
    state = StateVector.create([1, 0, 0, 1], (2, 2))
    assert concurrence_pure(state).value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_concurrence_pure_maximally_entangled(d):
    amps = np.zeros(d * d)
    amps[:: d + 1] = 1.0
    state = StateVector.create(amps, (d, d))
    assert concurrence_pure(state).value == pytest.approx(np.sqrt(2 * (1 - 1 / d)),
                                                          abs=1e-12)


def test_wootters_werner():
    assert wootters_concurrence(_werner(0.9)) == pytest.approx(0.85, abs=1e-12)


def test_wootters_ghz_w_residuals():
    assert wootters_concurrence(_residual(ghz())) == pytest.approx(0.0, abs=1e-12)
    assert wootters_concurrence(_residual(w())) == pytest.approx(2 / 3, abs=1e-12)


def test_wootters_matches_oracle_on_random_states():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = DensityMatrix.create(random_density_oracle(rng, 4), (2, 2))
        assert wootters_concurrence(rho) == pytest.approx(
            wootters_oracle(rho.matrix), abs=1e-9)


def test_concurrence_mixed_two_qubit_is_exact():
    measure = concurrence(_werner(0.9))
    assert measure.kind == "exact"
    assert measure.value == pytest.approx(0.85, abs=1e-12)


def test_concurrence_mixed_large_dims_is_upper_bound():
    measure = concurrence(tiles_state(), RoofBudget(restarts=2, iterations=30))
    assert measure.kind == "upper_bound"
    assert "seed=0" in measure.notes


def test_concurrence_without_budget_skips_mixed_large_dims():
    assert concurrence(tiles_state()) is None


def test_roof_on_pure_state_is_exact():
    rng = np.random.default_rng(5)
    psi = random_pure(rng, 9)
    rho = DensityMatrix.create(np.outer(psi, psi.conj()), (3, 3))
    pure_value = concurrence_pure(StateVector.create(psi, (3, 3))).value
    measure = concurrence_roof(rho, RoofBudget(restarts=1, iterations=5))
    assert measure.value == pytest.approx(pure_value, abs=1e-9)


def test_roof_upper_bounds_wootters():
    rng = np.random.default_rng(6)
    budget = RoofBudget(restarts=6, iterations=80, seed=3)
    for _ in range(4):
        rho = DensityMatrix.create(random_density_oracle(rng, 4), (2, 2))
        exact = wootters_concurrence(rho)
        assert concurrence_roof(rho, budget).value >= exact - 1e-9


def test_roof_is_deterministic_under_seed():
    rho = tiles_state()
    budget = RoofBudget(restarts=3, iterations=40, seed=11)
    a = concurrence_roof(rho, budget).value
    b = concurrence_roof(rho, budget).value
    assert a == b


# --- the 2x4 family and its separable region ----------------------------------


def test_region_maximally_mixed_point():
    assert example1_region(0.0, 0.0, 0.0, (0.5, 0.5, 0.5))


def test_region_spec_arithmetic():
    assert not example1_region(0.3, 0.3, 0.3, (0.6, 0.6, 0.5))   # 0.25 + 0.36 > 1/4
    assert example1_region(0.1, 0.1, 0.1, (0.5, 0.5, 0.5))       # 0.08, 0.04, 0.75


def test_region_zero_alpha_rules():
    assert not example1_region(0.1, 0.0, 0.0, (0.0, 0.7, 0.7))
    assert example1_region(0.0, 0.1, 0.0, (0.0, 0.7, 0.7))
    assert not example1_region(0.0, 0.0, 0.0, (0.7, 0.7, 0.5))   # sum alpha^2 > 1


def test_build_family_identity_point():
    rho = build_example1_state(0.0, 0.0, 0.0)
    np.testing.assert_allclose(rho.matrix, np.eye(8) / 8, atol=1e-15)


def test_build_family_is_its_own_normal_form():
    rho = build_example1_state(0.2, 0.2, 0.2)
    form = bloch_decompose(rho)
    np.testing.assert_allclose(form.a, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(form.b, np.zeros(15), atol=1e-12)
    assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12


def test_build_family_rejects_unphysical_parameters():
    with pytest.raises(NotPSDError):
        build_example1_state(2.0, 0.0, 0.0)


def test_region_points_are_ppt():
    rng = np.random.default_rng(7)
    for t, alpha in sample_example1_region(rng, 50):
        assert example1_region(t[0], t[1], t[2], alpha)
        rho = build_example1_state(*t)
        _, measure = ppt_negativity(rho)
        assert measure.value <= 1e-10


# --- two-qubit measure ordering -------------------------------------------------


def test_negativity_never_exceeds_concurrence():
    rng = np.random.default_rng(8)
    for _ in range(200):
        rho = DensityMatrix.create(random_density_oracle(rng, 4), (2, 2))
        _, measure = ppt_negativity(rho)
        assert measure.value <= wootters_concurrence(rho) + 1e-9


@st.composite
def _two_qubit_stacks(draw):
    """Stacks of 1 to 5 two-qubit states A A† / Tr, each of rank at most ``rank``."""
    count = draw(st.integers(1, 5))
    rank = draw(st.integers(1, 4))
    parts = draw(hnp.arrays(np.float64, (2, count, 4, rank),
                            elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    a = parts[0] + 1j * parts[1]
    gram = a @ a.conj().swapaxes(-1, -2)
    assume(np.all(np.trace(gram, axis1=-2, axis2=-1).real > 1e-2))
    return normalize_density(gram)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_two_qubit_stacks())
def test_stacked_two_qubit_measures_equal_stack_of_one(stack):
    negativity = stacked_negativity(stack, (2, 2))
    concurrence = stacked_wootters(stack)
    for index, mat in enumerate(stack):
        one = stack[index:index + 1]
        assert negativity[index] == stacked_negativity(one, (2, 2))[0]
        assert concurrence[index] == stacked_wootters(one)[0]
        rho = DensityMatrix((2, 2), mat)
        assert ppt_negativity(rho)[1].value == negativity[index]
        assert wootters_concurrence(rho) == concurrence[index]
    assert np.all(negativity <= concurrence + 1e-12)


def _reference_negativity(mat, dims):
    """The negativity by the plain recipe: the partial transpose, (pt +
    pt^dag)/2 computed in full, and its spectrum from eigh up to dimension 25,
    from eigvalsh above."""
    n, m = dims
    pt = mat.reshape(1, n, m, n, m).swapaxes(1, 3).reshape(1, n * m, n * m).copy()
    sym = (pt + pt.conj().swapaxes(-1, -2)) / 2.0
    w = np.linalg.eigh(sym)[0] if n * m <= 25 else np.linalg.eigvalsh(sym)
    negativity = -np.minimum(w, 0.0).sum(axis=-1)
    return float(np.where(negativity > 0, negativity, 0.0)[0])


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (5, 5), (5, 6), (6, 6), (12, 12), (14, 14)])
def test_ppt_negativity_is_the_plain_arithmetic_bit_for_bit(dims):
    # PT dimension 4 to 196, on both sides of the eigenvector cut: a residual
    # with its Gamma blocks, a dense density matrix and a separable mixture
    n, m = dims
    rng = np.random.default_rng(n * m)
    states = [_gamma_residual(StateVector.create(random_pure(rng, 2 * n * m), (2, n, m))),
              DensityMatrix.create(random_density_oracle(rng, n * m), dims),
              _separable_mixture(rng, n, m)]
    for rho in states:
        _, measure = ppt_negativity(rho)
        assert measure.value == _reference_negativity(rho.matrix, dims)


@pytest.mark.parametrize("dims", [(2, 2), (5, 5), (6, 6)])
def test_stacked_negativity_rejects_a_deviation_of_1e9(dims):
    rng = np.random.default_rng(sum(dims))
    dim = dims[0] * dims[1]
    stack = normalize_density(np.stack([random_density_oracle(rng, dim) for _ in range(3)]))
    stack[1, dim - 1, 0] += 1e-9
    with pytest.raises(NotHermitianError, match="max deviation 1.000e-09"):
        stacked_negativity(stack, dims)


def _rho_file(mat, dims):
    """A ``rho:`` state file holding ``mat``, parsed as the CLI parses it."""
    rows = (" ".join(f"{z.real}{z.imag:+}i" for z in row) for row in mat)
    text = f"dims: {dims[0]} {dims[1]}\nrho:\n" + "\n".join(rows) + "\n"
    return parse_state_file(text).state


@pytest.mark.parametrize("dims", [(5, 5), (6, 6), (12, 12)])
def test_negativity_of_built_states_needs_no_hermitian_check_above_25(dims, monkeypatch):
    # a 2 x N x M ket's residual, with its Gamma blocks and as a partial
    # trace, and a dense rho: file: above PT dimension 25 having been built by
    # _unit_trace stands in for the check, at or below it eigh checks
    n, m = dims
    rng = np.random.default_rng(n * m + 7)
    state = StateVector.create(random_pure(rng, 2 * n * m), (2, n, m))
    built = [_gamma_residual(state), _residual(state),
             _rho_file(random_density_oracle(rng, n * m), dims)]
    checked = []
    check_hermitian = numerics.check_hermitian

    def counting(mat, *args, **kwargs):
        checked.append(mat.shape)
        return check_hermitian(mat, *args, **kwargs)

    monkeypatch.setattr(numerics, "check_hermitian", counting)
    for rho in built:
        checked.clear()
        _, measure = ppt_negativity(rho)
        assert measure.value == pytest.approx(negativity_oracle(rho.matrix, n, m), abs=1e-10)
        assert measure.value == _reference_negativity(rho.matrix, dims)
        assert checked == ([] if n * m > 25 else [(1, n * m, n * m)])


@pytest.mark.parametrize("dims", [(6, 6), (4, 7)])
def test_built_state_with_a_signed_zero_needs_no_hermitian_check_above_25(dims, monkeypatch):
    # a complex-typed real vector with mixed signs: v_i conj(v_j) has a -0
    # imaginary part where v_i > 0 > v_j, and so has the symmetrized sum.
    # create keeps it, and the partial transpose still goes to LAPACK unchecked
    n, m = dims
    rng = np.random.default_rng(n * m)
    v = rng.normal(size=n * m).astype(complex)
    v /= np.linalg.norm(v)
    assert (v.real > 0).any() and (v.real < 0).any()
    rho = DensityMatrix.create(np.outer(v, v.conj()), dims)
    parts = rho.matrix.view(np.float64)
    assert (np.signbit(parts) & (parts == 0.0)).any()
    assert np.array_equal(rho.matrix, numerics.dagger(rho.matrix))
    checked = []
    check_hermitian = numerics.check_hermitian

    def counting(mat, *args, **kwargs):
        checked.append(mat.shape)
        return check_hermitian(mat, *args, **kwargs)

    monkeypatch.setattr(numerics, "check_hermitian", counting)
    _, measure = ppt_negativity(rho)
    assert checked == []
    assert measure.value == pytest.approx(negativity_oracle(rho.matrix, n, m), abs=1e-10)


@pytest.mark.parametrize("dims", [(5, 5), (6, 6)])
def test_a_matrix_not_built_by_unit_trace_is_still_checked_and_symmetrized(dims):
    # DensityMatrix(...) input keeps its bits: its partial transpose is checked
    # and symmetrized before LAPACK, and a deviation above 1e-12 still raises
    n, m = dims
    dim = n * m
    rng = np.random.default_rng(dim)
    skewed = random_density_oracle(rng, dim)
    skewed[dim - 1, 0] += 3e-13
    rho = DensityMatrix(dims, skewed.copy())
    assert rho._built is False and not np.array_equal(rho.matrix, numerics.dagger(rho.matrix))
    _, measure = ppt_negativity(rho)
    assert measure.value == _reference_negativity(rho.matrix, dims)
    skewed[dim - 1, 0] += 1e-9
    with pytest.raises(NotHermitianError, match="max deviation 1.000e-09"):
        DensityMatrix(dims, skewed)


def _reference_concurrence(rho, rank_tol=numerics.RANK_TOL):
    """The pure-residual rule with the purity pre-test on all N M x N M
    entries, whatever the state keeps, then the rank of the Gram factor."""
    dim = rho.matrix.shape[0]
    if 1.0 - np.vdot(rho.matrix, rho.matrix).real <= 2 * (dim - 1) * rank_tol + 1e-12:
        g = rho._gram_factor(rank_tol)
        if g.shape[1] == 1:
            return concurrence_pure(StateVector.create(g[:, 0], rho.dims)).value
    return None


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (5, 5)])
@pytest.mark.parametrize("ratio", [0.0, 0.5, 0.9, 1.1, 2.0, 1e3, None])
def test_concurrence_with_and_without_a_kept_factor(dims, ratio):
    # a rank-2 Gram factor whose smaller eigenvalue is ratio * rank_tol times
    # the larger (None: two Gaussian columns): the rank x rank pre-test of a
    # kept factor decides as the N M x N M one did, and the dense copy agrees
    n, m = dims
    rng = np.random.default_rng(n * m)
    a = random_pure(rng, n * m)
    b = random_pure(rng, n * m)
    if ratio is not None:
        b -= np.vdot(a, b) * a
        b *= np.sqrt(ratio * numerics.RANK_TOL) / np.linalg.norm(b)
    g = 3.0 * np.stack([a, b], axis=1)          # a kept factor need not be normalized
    factored = DensityMatrix._trusted(g @ g.conj().T, dims, factor=g)
    dense = DensityMatrix(dims, factored.matrix.copy())
    want = _reference_concurrence(factored)
    assert (want is None) == (ratio is None or ratio > 1.0)
    got, other = concurrence(factored), concurrence(dense)
    if want is None:
        assert got is None and other is None
    else:
        assert got.value == want
        assert other.value == pytest.approx(want, abs=1e-12)
