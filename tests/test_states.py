"""State types, the Gamma-block residual, reductions, and transposes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qloss import (
    DensityMatrix,
    StateVector,
    density,
    ghz,
    normal_form,
    numerics,
    parse_ket,
    partial_trace,
    partial_transpose,
    reduce_support,
)
from qloss.errors import (
    DimensionMismatchError,
    EmptyStateError,
    InvalidDimensionError,
    InvalidParamsError,
    InvalidSubsystemError,
    NotHermitianError,
    NotPSDError,
    RankDeficientError,
)
from qloss.states import (
    _check_tripartite_dims,
    _gamma_residual,
    _unit_trace,
    normalize_density,
    transpose_side,
)

from oracles import (
    negativity_oracle,
    pt_brute,
    ptrace_brute,
    random_density_oracle,
    random_pure,
    random_unitary_oracle,
)

BELL = StateVector.create([1, 0, 0, 1], (2, 2))
EX4 = parse_ket("|010> + |001> + |112> + |121>", (2, 3, 3))


def _residual(state: StateVector) -> DensityMatrix:
    return partial_trace(density(state), keep=(1, 2))


def test_tripartite_dims_check_takes_either_qunit_order():
    for dims in ((2, 4, 3), (2, 3, 4), (2, 2, 2), [2, 2, 7]):
        _check_tripartite_dims(dims)


def test_tripartite_dims_check_rejects_bad_dims():
    with pytest.raises(InvalidDimensionError, match="qubit"):
        _check_tripartite_dims((3, 2, 2))
    with pytest.raises(InvalidDimensionError, match="at least 2"):
        _check_tripartite_dims((2, 1, 4))
    with pytest.raises(InvalidDimensionError, match="at least 2"):
        _check_tripartite_dims((2, 4, 1))
    for dims in ((2, 2, 2, 2), (2, 3)):
        with pytest.raises(DimensionMismatchError):
            _check_tripartite_dims(dims)


def test_state_vector_validation():
    with pytest.raises(EmptyStateError):
        StateVector.create(np.zeros(4), (2, 2))
    with pytest.raises(DimensionMismatchError):
        StateVector.create(np.ones(3), (2, 2))
    with pytest.raises(InvalidParamsError):
        StateVector((2, 2), np.array([1.0, 1.0, 0, 0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_state_vector_create_names_non_finite_amplitudes(bad):
    amps = np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=complex)
    amps[[2, 5]] = bad
    with pytest.raises(InvalidParamsError, match="2 non-finite amplitude.*at index 2"):
        StateVector.create(amps, (2, 2, 2))
    with pytest.raises(InvalidParamsError, match="non-finite"):
        StateVector.create(amps, (2, 2, 2), normalize=False)


def test_state_vector_refuses_a_nan_norm():
    # NaN fails every comparison, so the norm test is written to fail on it
    for amps in (np.full(8, np.nan), np.array([np.nan, 0, 0, 0, 0, 0, 0, 1])):
        with pytest.raises(InvalidParamsError, match="not normalized"):
            StateVector((2, 2, 2), amps)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_state_vector_create_normalizes_amplitudes_whose_squares_overflow_or_underflow(scale):
    state = StateVector.create(np.array([scale, 0, 0, scale]), (2, 2))
    assert state.amplitudes == pytest.approx(np.array([1, 0, 0, 1]) / np.sqrt(2), abs=1e-15)


def test_state_vector_create_refuses_amplitudes_below_the_zero_norm_floor():
    with pytest.raises(EmptyStateError):
        StateVector.create(np.array([1e-320, 0, 0, 1e-320]), (2, 2))


def test_density_matrix_create_normalizes_and_symmetrizes():
    rho = DensityMatrix.create(4.0 * np.eye(2), (2,))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2)
    with pytest.raises(NotHermitianError):
        DensityMatrix.create(np.array([[1.0, 1.0], [0.0, 1.0]]), (2,))
    with pytest.raises(NotPSDError):
        DensityMatrix.create(np.diag([1.5, -0.5]), (2,))


@pytest.mark.parametrize("dim", [4, 25, 36])
def test_the_entry_points_refuse_a_deviation_of_1e9(dim):
    # Hermiticity is checked where a matrix enters, on both sides of 25
    rng = np.random.default_rng(dim)
    skewed = random_density_oracle(rng, dim)
    skewed[dim - 1, 0] += 1e-9
    entries = (lambda m: DensityMatrix((dim,), m), lambda m: DensityMatrix.create(m, (dim,)),
               normalize_density, lambda m: normalize_density(np.stack([m, m])))
    for enter in entries:
        with pytest.raises(NotHermitianError, match="max deviation 1.000e-09"):
            enter(skewed)


def test_density_matrix_create_checks_hermiticity_once(monkeypatch):
    calls = []
    check_hermitian = numerics.check_hermitian

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        check_hermitian(*args, **kwargs)

    monkeypatch.setattr(numerics, "check_hermitian", counting)
    DensityMatrix.create(4.0 * np.eye(2), (2,))
    assert calls == [(2, 2)]
    with pytest.raises(DimensionMismatchError):
        DensityMatrix.create(np.eye(3), (2,))


def test_gamma_blocks_ghz():
    residual = _gamma_residual(ghz())
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(residual._factor[:, 0].reshape(2, 2), [[s, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(residual._factor[:, 1].reshape(2, 2), [[0, 0], [0, s]], atol=1e-15)
    assert residual.dims == (2, 2)
    np.testing.assert_allclose(residual.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)


def test_gamma_blocks_product_state():
    residual = _gamma_residual(parse_ket("|000>", (2, 2, 2)))
    np.testing.assert_allclose(residual._factor[:, 0].reshape(2, 2), [[1, 0], [0, 0]])
    np.testing.assert_allclose(residual._factor[:, 1].reshape(2, 2), np.zeros((2, 2)))
    np.testing.assert_allclose(residual.matrix, np.diag([1.0, 0, 0, 0]), atol=1e-15)


def test_gamma_blocks_four_term_state():
    residual = _gamma_residual(EX4)
    want1 = np.zeros((3, 3))
    want1[1, 0] = want1[0, 1] = 0.5
    want2 = np.zeros((3, 3))
    want2[1, 2] = want2[2, 1] = 0.5
    np.testing.assert_allclose(residual._factor[:, 0].reshape(3, 3), want1, atol=1e-15)
    np.testing.assert_allclose(residual._factor[:, 1].reshape(3, 3), want2, atol=1e-15)
    want = np.zeros((9, 9))
    for block in (want1, want2):
        want += np.outer(block.reshape(-1), block.reshape(-1))
    np.testing.assert_allclose(residual.matrix, want, atol=1e-15)


def test_gamma_block_norms_sum_to_one():
    rng = np.random.default_rng(1)
    state = StateVector.create(random_pure(rng, 2 * 3 * 4), (2, 3, 4))
    residual = _gamma_residual(state)
    assert np.linalg.norm(residual._factor) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert residual.matrix.trace().real == pytest.approx(1.0, abs=1e-12)


_UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def _pure_2xnxm(draw):
    """Pure 2 x N x M states with N in 2..6 and M in 2..7, so N > M occurs:
    generic ones, and |0>|a1 b1> + |1>|a2 b2>, whose residual has local
    ranks at most 2."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 7))
    if draw(st.booleans()):
        parts = draw(hnp.arrays(np.float64, (2, 2 * n * m), elements=_UNIT))
        amps = parts[0] + 1j * parts[1]
    else:
        a = draw(hnp.arrays(np.float64, (2, 2, n), elements=_UNIT))
        b = draw(hnp.arrays(np.float64, (2, 2, m), elements=_UNIT))
        amps = np.einsum("kj,kl->kjl", a[0] + 1j * a[1], b[0] + 1j * b[1]).reshape(-1)
    assume(np.linalg.norm(amps) > 1e-2)
    return StateVector.create(amps, (2, n, m))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_pure_2xnxm())
def test_gamma_residual_matches_brute_partial_trace(state):
    residual = _gamma_residual(state)
    want = ptrace_brute(np.outer(state.amplitudes, state.amplitudes.conj()), state.dims, (1, 2))
    assert residual.dims == state.dims[1:]
    assert np.abs(residual.matrix - want).max() <= 1e-14
    # the compressed factor gives the state the dense compression gives:
    # the same matrix without a factor takes the dense path
    reduced = reduce_support(residual)
    dense = reduce_support(DensityMatrix(residual.dims, residual.matrix))
    assert dense._factor is None and reduced.dims == dense.dims
    assert np.abs(reduced.matrix - dense.matrix).max() <= 1e-14
    # the reduced state keeps its factor, which gives the rank the
    # diagonalisation gives
    assert reduced._factor is not None
    factor = reduced._gram_factor()
    assert factor.shape[1] == dense._gram_factor().shape[1]
    assert np.abs(factor @ factor.conj().T / np.vdot(factor, factor).real
                  - reduced.matrix).max() <= 1e-12


def test_density_is_projector():
    rho = density(BELL)
    assert rho.matrix.trace().real == pytest.approx(1.0)
    np.testing.assert_allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-12)


def test_density_blocks_are_vec_outer_products():
    rng = np.random.default_rng(2)
    for dims in ((2, 2, 2), (2, 3, 3), (2, 2, 4)):
        state = StateVector.create(random_pure(rng, int(np.prod(dims))), dims)
        gammas = _gamma_residual(state)._factor
        rho = density(state).matrix
        nm = dims[1] * dims[2]
        for i in range(2):
            for j in range(2):
                block = rho[i * nm:(i + 1) * nm, j * nm:(j + 1) * nm]
                np.testing.assert_allclose(block, np.outer(gammas[:, i], gammas[:, j].conj()),
                                           atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho_a = random_density_oracle(rng, 2)
    rho_b = random_density_oracle(rng, 3)
    rho = DensityMatrix.create(np.kron(rho_a, rho_b), (2, 3))
    np.testing.assert_allclose(partial_trace(rho, [0]).matrix, rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, [1]).matrix, rho_b, atol=1e-12)


def test_partial_trace_ghz_residual():
    from qloss import ghz
    residual = _residual(ghz())
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 0.5
    np.testing.assert_allclose(residual.matrix, want, atol=1e-12)


def test_partial_trace_w_residual():
    from qloss import w
    residual = _residual(w())
    psi = np.array([0, 1, 1, 0]) / np.sqrt(2)
    want = np.outer(psi, psi) * (2 / 3)
    want[0, 0] = 1 / 3
    np.testing.assert_allclose(residual.matrix, want, atol=1e-12)


def test_partial_trace_matches_brute_oracle():
    rng = np.random.default_rng(4)
    for dims, keep in (((2, 3, 3), (1, 2)), ((2, 3, 3), (0,)), ((2, 2, 3, 3), (1, 3)),
                       ((6, 6), (0,))):
        rho = DensityMatrix.create(random_density_oracle(rng, int(np.prod(dims))), dims)
        got = partial_trace(rho, keep).matrix
        want = ptrace_brute(rho.matrix, dims, keep)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert got.trace().real == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_invalid_subsystem():
    rho = density(BELL)
    with pytest.raises(InvalidSubsystemError):
        partial_trace(rho, [5])
    with pytest.raises(InvalidSubsystemError):
        partial_trace(rho, [])


def test_partial_transpose_of_product_state_is_psd():
    rng = np.random.default_rng(5)
    rho = DensityMatrix.create(
        np.kron(random_density_oracle(rng, 2), random_density_oracle(rng, 3)), (2, 3))
    w = np.linalg.eigvalsh(partial_transpose(rho, 0))
    assert w.min() >= -1e-12


def test_partial_transpose_four_term_residual_matrix():
    # the 3x3 residual's partial transpose: 1/4 entries on a fixed pattern
    pt = partial_transpose(_residual(EX4), 0)
    want = np.zeros((9, 9))
    for r, c in [(0, 4), (4, 0), (1, 1), (3, 3), (5, 5), (7, 7), (4, 8), (8, 4)]:
        want[r, c] = 0.25
    np.testing.assert_allclose(pt, want, atol=1e-14)


def test_partial_transpose_bell_min_eig():
    w = np.linalg.eigvalsh(partial_transpose(density(BELL), 0))
    assert w.min() == pytest.approx(-0.5, abs=1e-12)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(6)
    rho = DensityMatrix.create(random_density_oracle(rng, 12), (3, 4))
    pt = partial_transpose(rho, 0)
    assert pt.trace().real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(pt).sum() == pytest.approx(1.0, abs=1e-10)
    back = partial_transpose(DensityMatrix((3, 4), rho.matrix), 0)  # same input again
    twice = pt.reshape(3, 4, 3, 4).transpose(2, 1, 0, 3).reshape(12, 12)
    np.testing.assert_allclose(twice, rho.matrix, atol=1e-14)
    assert np.abs(back - pt).max() == 0.0


def test_partial_transpose_matches_brute_oracle():
    rng = np.random.default_rng(7)
    rho = DensityMatrix.create(random_density_oracle(rng, 6), (2, 3))
    np.testing.assert_allclose(partial_transpose(rho, 0), pt_brute(rho.matrix, 2, 3),
                               atol=1e-14)


def test_partial_transpose_second_subsystem():
    rng = np.random.default_rng(8)
    rho = DensityMatrix.create(random_density_oracle(rng, 6), (2, 3))
    pt_b = partial_transpose(rho, 1)
    np.testing.assert_allclose(pt_b, partial_transpose(rho, 0).T, atol=1e-14)
    with pytest.raises(InvalidSubsystemError):
        partial_transpose(rho, 2)


def _embed(rho_small, dims_small, dims_big, rng):
    """Embed a state via random local isometries."""
    iso = []
    for small, big in zip(dims_small, dims_big):
        iso.append(random_unitary_oracle(rng, big)[:, :small])
    full = np.kron(iso[0], iso[1])
    return DensityMatrix.create(full @ rho_small @ full.conj().T, dims_big)


def test_local_ranks():
    def local_ranks(rho):
        return reduce_support(rho).dims

    assert local_ranks(density(BELL)) == (2, 2)
    assert local_ranks(density(StateVector.create([1, 0, 0, 0], (2, 2)))) == (1, 1)
    rng = np.random.default_rng(9)
    bell_in_2x3 = _embed(density(BELL).matrix, (2, 2), (2, 3), rng)
    assert local_ranks(bell_in_2x3) == (2, 2)


def test_reduce_support_full_rank_is_identity():
    rng = np.random.default_rng(10)
    rho = DensityMatrix.create(random_density_oracle(rng, 6, min_eig=0.02), (2, 3))
    assert reduce_support(rho) is rho


def test_reduce_support_bell_in_2x3():
    rng = np.random.default_rng(11)
    emb = _embed(density(BELL).matrix, (2, 2), (2, 3), rng)
    reduced = reduce_support(emb)
    assert reduced.dims == (2, 2)
    assert negativity_oracle(reduced.matrix, 2, 2) == pytest.approx(0.5, abs=1e-10)


def test_reduce_support_pure_product_to_scalar():
    rng = np.random.default_rng(12)
    ket = np.zeros(9)
    ket[0] = 1.0
    emb = _embed(np.outer(ket, ket), (3, 3), (3, 3), rng)
    reduced = reduce_support(emb)
    assert reduced.dims == (1, 1)
    np.testing.assert_allclose(reduced.matrix, [[1.0]], atol=1e-12)


def test_reduce_support_preserves_negativity():
    rng = np.random.default_rng(13)
    for dims_small, dims_big in (((2, 2), (2, 3)), ((2, 2), (3, 4)), ((2, 3), (3, 3))):
        small = random_density_oracle(rng, int(np.prod(dims_small)))
        before = negativity_oracle(small, *dims_small)
        emb = _embed(small, dims_small, dims_big, rng)
        reduced = reduce_support(emb)
        assert reduced.dims == dims_small
        after = negativity_oracle(reduced.matrix, *reduced.dims)
        assert after == pytest.approx(before, abs=1e-9)


def _padded_spectrum(mat: np.ndarray, size: int) -> np.ndarray:
    w = np.linalg.eigvalsh(mat)
    return np.sort(np.concatenate([w, np.zeros(size - len(w))]))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 3), m=st.integers(1, 3), rank=st.integers(1, 4),
       pad_a=st.integers(0, 2), pad_b=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_reduce_support_preserves_spectra(n, m, rank, pad_a, pad_b, seed):
    # a rank-r state on n x m, embedded by local isometries: the reduction is
    # a local isometry back, so the nonzero spectrum and the nonzero spectrum
    # of the partial transpose survive, on the factor path and the dense path
    rng = np.random.default_rng(seed)
    big = (n + pad_a, m + pad_b)
    assume(big[0] * big[1] > 1)
    small = rng.normal(size=(n * m, rank)) + 1j * rng.normal(size=(n * m, rank))
    iso = np.kron(random_unitary_oracle(rng, big[0])[:, :n],
                  random_unitary_oracle(rng, big[1])[:, :m])
    g = iso @ small / np.linalg.norm(small)
    size = big[0] * big[1]
    for rho in (DensityMatrix._trusted(g @ g.conj().T, big, factor=g),
                DensityMatrix.create(g @ g.conj().T, big)):
        reduced = reduce_support(rho)
        assert reduced.dims == (min(n, rank * m), min(m, rank * n))
        assert (reduced._factor is None) == (rho._factor is None)
        np.testing.assert_allclose(_padded_spectrum(reduced.matrix, size),
                                   _padded_spectrum(rho.matrix, size), atol=1e-12)
        np.testing.assert_allclose(_padded_spectrum(partial_transpose(reduced), size),
                                   _padded_spectrum(partial_transpose(rho), size), atol=1e-12)


def test_density_check_on_a_stack_matches_per_matrix_validation():
    # normalize_density builds a stack as create builds each member, and
    # refuses it if any member fails; DensityMatrix(...) checks one matrix
    rng = np.random.default_rng(14)
    raw = np.stack([3.0 * random_density_oracle(rng, 6) for _ in range(4)])
    stack = normalize_density(raw)
    for mat, normalized in zip(raw, stack):
        assert np.array_equal(DensityMatrix.create(mat, (2, 3)).matrix, normalized)
        assert np.array_equal(DensityMatrix((2, 3), normalized).matrix, normalized)
    skewed, empty = raw.copy(), raw.copy()
    skewed[2, 0, 1] += 1e-6
    empty[3] = 0.0
    with pytest.raises(NotHermitianError):
        normalize_density(skewed)
    with pytest.raises(InvalidParamsError, match="zero trace"):
        normalize_density(empty)
    bad = {NotHermitianError: stack[2].copy(), InvalidParamsError: 1.01 * stack[3],
           NotPSDError: np.diag([1.0 + 1e-6, -1e-6, 0, 0, 0, 0])}
    bad[NotHermitianError][0, 1] += 1e-6
    for error, mat in bad.items():
        with pytest.raises(error):
            DensityMatrix((2, 3), mat)


def _embedded(rng, g, dims):
    """A state with Gram factor ``g`` on ``dims``, embedded by local isometries
    into one more level on each side, with its factor kept and as a dense
    matrix: reduce_support compresses both back to ``dims``."""
    n, m = dims
    iso = np.kron(random_unitary_oracle(rng, n + 1)[:, :n], random_unitary_oracle(rng, m + 1)[:, :m])
    big = iso @ g
    return (DensityMatrix._trusted(big @ big.conj().T, (n + 1, m + 1), factor=big),
            DensityMatrix.create(big @ big.conj().T, (n + 1, m + 1)))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4), (5, 5), (6, 4), (12, 12)])
def test_built_states_are_their_own_hermitian_part(dims):
    # what the library builds equals its conjugate transpose entry for entry,
    # and so do both of its partial transposes
    n, m = dims
    rng = np.random.default_rng(n * m)
    residual = _gamma_residual(StateVector.create(random_pure(rng, 2 * n * m), (2, n, m)))
    built = [residual, DensityMatrix.create(random_density_oracle(rng, n * m), dims)]
    built += [reduce_support(rho) for rho in _embedded(rng, residual._factor, dims)]
    for rho in built:
        assert rho.dims == dims
        # built by _unit_trace, whatever the dimension
        assert rho._built
        for mat in (rho.matrix, transpose_side(rho.matrix, dims, 0),
                    transpose_side(rho.matrix, dims, 1)):
            assert np.array_equal(mat, numerics.dagger(mat))


def _scaling_input(rng, shape, kind):
    """A matrix, or stack, for :func:`_unit_trace`: Gaussian (``dense``), with
    30% of its parts zero and half of those -0 (``signed_zeros``), with every
    part subnormal or +-2^-1074 (``subnormal``), or G G^dag of a sparse ket's
    Gamma blocks (``sparse_ket``), whose product leaves zeros of either sign."""
    d = shape[-1]
    if kind == "sparse_ket":
        g = rng.normal(size=shape[:-1] + (2,)) + 1j * rng.normal(size=shape[:-1] + (2,))
        g.view(np.float64)[rng.random(g.view(np.float64).shape) < 0.8] = 0.0
        g[..., 0, 0] = 1.0                      # a nonzero trace
        return g @ numerics.dagger(g)
    mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    parts = mat.view(np.float64)
    if kind == "signed_zeros":
        parts[rng.random(parts.shape) < 0.3] = 0.0
        parts[(parts == 0.0) & (rng.random(parts.shape) < 0.5)] = -0.0
    elif kind == "subnormal":
        parts *= 1e-310
        tiny = rng.random(parts.shape) < 0.1
        parts[tiny] = np.copysign(np.finfo(float).smallest_subnormal, parts[tiny])
        mat[..., range(d), range(d)] += 1e-300    # the trace stays above 1e-300
    return mat


@pytest.mark.parametrize("shape", [(3, 3), (4, 6, 6), (1, 25, 25), (2, 1, 30, 30), (26, 26),
                                   (36, 36)])
def test_unit_trace_is_the_plain_arithmetic(shape):
    # bit for bit (mat + mat^dag) / 2 over the trace by numpy's complex
    # division, out of place; above dimension 25 the two divisions are
    # products of the float view, which differ from numpy's division only in
    # the signs of zeros that a -0 in the input leaves
    for kind in ("dense", "signed_zeros", "subnormal", "sparse_ket"):
        rng = np.random.default_rng([len(shape), shape[-1]])
        mat = _scaling_input(rng, shape, kind)
        total = mat + numerics.dagger(mat)
        sym = total / 2.0
        want = sym / sym.trace(axis1=-2, axis2=-1).real[..., None, None]
        got = _unit_trace(mat)
        assert isinstance(got, np.ndarray) and got.shape == mat.shape
        if shape[-1] > 25 and kind == "signed_zeros":
            products = total.copy()
            parts = products.view(np.float64)
            parts *= 0.5
            parts *= (1.0 / products.trace(axis1=-2, axis2=-1).real)[..., None, None]
            assert got.tobytes() == products.tobytes()
            assert np.array_equal(got, want)
        else:
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims, off_diagonal", [
    pytest.param((2, 2), False, id="dims0"),
    pytest.param((6, 6), False, id="dims1"),
    pytest.param((2, 2), True, id="off_diagonal-dims0"),
    pytest.param((6, 6), True, id="off_diagonal-dims1"),
])
def test_create_refuses_a_matrix_whose_entries_overflow(dims, off_diagonal):
    # 1e308 + 1e308 overflows, on either scaling path (numpy's division up to
    # 25, float-view products above): on the diagonal the trace comes out
    # NaN, off it the unit-trace matrix is not finite; an input error before
    # LAPACK sees the matrix, with no RuntimeWarning
    d = dims[0] * dims[1]
    if off_diagonal:
        mat = np.zeros((d, d), dtype=complex)
        mat[1, 1] = 1.0
        mat[0, 1] = mat[1, 0] = 1e308
        with pytest.raises(InvalidParamsError, match="not finite once symmetrized"):
            DensityMatrix(dims, mat)
    else:
        mat = np.eye(d, dtype=complex)
        mat[0, 0] = 1e308
    with pytest.raises(InvalidParamsError,
                       match="not finite once symmetrized" if off_diagonal else "trace is nan"):
        DensityMatrix.create(mat, dims)


@pytest.mark.parametrize("dims", [(3, 3), (3, 4)])
def test_reduce_support_and_the_normal_form_diagonalise_the_marginals_once(dims, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the marginals are diagonalised again")

    rng = np.random.default_rng(3)
    n, m = dims
    rho = _gamma_residual(StateVector.create(random_pure(rng, 2 * n * m), (2, n, m)))
    solves = []
    eigh = numerics._eigh

    def counting(h, *args, **kwargs):
        solves.append(np.shape(h))
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(numerics, "_eigh", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert reduce_support(rho) is rho
    normal_form(rho)
    # one stacked call on N x N, one per side on N x M, then the 2 x 2
    # G^dag G of the Gram factor
    assert solves == ([(2, n, n)] if n == m else [(n, n), (m, m)]) + [(2, 2)]


def test_the_marginals_of_a_reduced_state_are_its_own():
    # reduce_support diagonalises the marginals of what it is given; the
    # state it compresses to has its own, and a rank-deficient one is still
    # refused by the normal form
    rng = np.random.default_rng(9)
    g = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    for rho in _embedded(rng, g / np.linalg.norm(g), (2, 3)):
        reduced = reduce_support(rho)
        assert reduced.dims == (2, 3) and reduced._marginals is None
        tensor = reduced.matrix.reshape(2, 3, 2, 3)
        for (marginal, w, _), want in zip(reduced._local_spectra(),
                                          (np.einsum("jmkm->jk", tensor),
                                           np.einsum("jmjn->mn", tensor))):
            assert np.array_equal(marginal, want) and np.all(w > 1e-3)
    product = density(StateVector.create([1, 0, 0, 0], (2, 2)))
    reduce_support(product)
    with pytest.raises(RankDeficientError):
        normal_form(product)


def test_a_kept_gram_factor_is_diagonalised_unchecked(monkeypatch):
    # G^dag G is Hermitian by construction; it is symmetrized, as eigh did,
    # and diagonalised with no check, to the same values
    def forbidden(*args, **kwargs):
        raise AssertionError("G^dag G is checked")

    rng = np.random.default_rng(6)
    rho = _gamma_residual(StateVector.create(random_pure(rng, 30), (2, 3, 5)))
    g = rho._factor
    gram = g.conj().T @ g
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    monkeypatch.setattr(numerics, "check_hermitian", forbidden)
    assert np.array_equal(rho._gram_factor(), g @ v[:, numerics.support(w)])
