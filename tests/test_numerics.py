"""Contract tests for the dense matrix kernel."""

import numpy as np
import pytest

from qloss import numerics
from qloss.errors import NotHermitianError, NotPSDError

from oracles import random_hermitian, random_unitary_oracle

SZ = np.diag([1.0, -1.0]).astype(complex)

# partial transpose of the four-term 2x3x3 state's residual, used as a golden
# matrix: entries 1/4 on a fixed sparsity pattern, spectrum known in closed form
EX4_PT = np.zeros((9, 9))
for _r, _c in [(0, 4), (4, 0), (1, 1), (3, 3), (5, 5), (7, 7), (4, 8), (8, 4)]:
    EX4_PT[_r, _c] = 0.25
EX4_PT_SPECTRUM = np.sort([-1 / (2 * np.sqrt(2)), 1 / (2 * np.sqrt(2)),
                           0.25, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0])


def test_eigh_pauli_z_spectrum():
    w, _ = numerics.eigh(SZ)
    np.testing.assert_allclose(w, [-1.0, 1.0])


def test_eigh_identity():
    w, _ = numerics.eigh(np.eye(5))
    np.testing.assert_allclose(w, np.ones(5))


def test_eigh_golden_pt_spectrum():
    w, _ = numerics.eigh(EX4_PT)
    np.testing.assert_allclose(w, EX4_PT_SPECTRUM, atol=1e-12)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        numerics.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_reconstruction_random():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 8, 17, 32):
        h = random_hermitian(rng, dim)
        w, v = numerics.eigh(h)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-10)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)


@pytest.mark.parametrize("dim", [4, 25, 26, 36])
def test_eigenvalues_are_eigh_values_up_to_dimension_25(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    stack = np.stack([random_hermitian(rng, dim) for _ in range(3)])
    want, _ = numerics.eigh(stack)
    vector_solves = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        vector_solves.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    got = numerics.eigenvalues(stack)
    assert len(vector_solves) == (dim <= 25)
    if dim <= 25:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.all(np.diff(got) >= 0)
    assert np.array_equal(numerics.eigenvalues(stack[1]), got[1])
    skewed = stack.copy()
    skewed[1, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        numerics.eigenvalues(skewed)


def test_singular_values_diagonal():
    s = numerics.singular_values(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(s, [3.0, 2.0, 1.0])


def test_singular_values_zero_matrix():
    s = numerics.singular_values(np.zeros((4, 4)))
    np.testing.assert_allclose(s, np.zeros(4))


def test_singular_values_random():
    rng = np.random.default_rng(1)
    for shape in ((8, 8), (5, 9), (64, 64)):
        real = rng.normal(size=shape)
        for m in (real, real + 1j * rng.normal(size=shape)):
            s = numerics.singular_values(m)
            assert s.dtype == np.float64 and s.shape == (min(shape),)
            assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
            gram = m @ m.conj().T if shape[0] <= shape[1] else m.conj().T @ m
            want = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))[::-1]
            np.testing.assert_allclose(s, want, atol=1e-10)


def test_singular_values_non_finite_input_raises_convergence_failure():
    from qloss.errors import ConvergenceFailureError
    with pytest.raises(ConvergenceFailureError):
        numerics.singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_trace_norm_hermitian_diagonal():
    assert numerics.trace_norm(np.diag([1.0, -2.0, 3.0])) == pytest.approx(6.0)


def test_trace_norm_density_matrix_is_one():
    rng = np.random.default_rng(2)
    u = random_unitary_oracle(rng, 5)
    rho = (u * rng.dirichlet(np.ones(5))) @ u.conj().T
    assert numerics.trace_norm(rho) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_golden_pt():
    assert numerics.trace_norm(EX4_PT) == pytest.approx(1.0 + 1.0 / np.sqrt(2), abs=1e-12)


def test_ky_fan_examples():
    assert numerics.ky_fan_norm(np.diag([1.0, 2.0, 3.0])) == pytest.approx(6.0)
    assert numerics.ky_fan_norm(np.zeros((3, 3))) == 0.0


def test_ky_fan_is_trace_norm():
    assert numerics.ky_fan_norm is numerics.trace_norm
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert numerics.ky_fan_norm(m) == pytest.approx(numerics.trace_norm(m), abs=1e-12)


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    base = numerics.trace_norm(m)
    for _ in range(5):
        u = random_unitary_oracle(rng, 6)
        w = random_unitary_oracle(rng, 6)
        assert numerics.trace_norm(u @ m @ w) == pytest.approx(base, abs=1e-10)


def test_inv_sqrt_psd_identity():
    np.testing.assert_allclose(numerics.inv_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)


def test_inv_sqrt_psd_diagonal():
    got = numerics.inv_sqrt_psd(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(got, np.diag([0.5, 1.0]), atol=1e-12)


def test_inv_sqrt_psd_support_projection():
    got = numerics.inv_sqrt_psd(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-12)


def test_inv_sqrt_psd_power():
    # h^(-power/2) on the support: power 2 is the pseudo-inverse
    got = numerics.inv_sqrt_psd(np.diag([4.0, 0.25, 0.0]), power=2.0)
    np.testing.assert_allclose(got, np.diag([0.25, 4.0, 0.0]), atol=1e-12)


def test_inv_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSDError):
        numerics.inv_sqrt_psd(np.diag([1.0, -1e-6]))


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(5)
    u = random_unitary_oracle(rng, 4)
    h = (u * [0.5, 0.3, 0.2, 0.0]) @ u.conj().T
    root = numerics.sqrt_psd(h)
    np.testing.assert_allclose(root @ root, h, atol=1e-12)


def _psd_stack(rng, count, dim):
    """PSD matrices with a zero eigenvalue in the last member."""
    members = []
    for index in range(count):
        u = random_unitary_oracle(rng, dim)
        w = rng.dirichlet(np.ones(dim))
        if index == count - 1:
            w[0] = 0.0
        members.append((u * w) @ u.conj().T)
    return np.stack(members)


def test_stacked_kernels_match_per_matrix_calls():
    rng = np.random.default_rng(12)
    stack = _psd_stack(rng, 5, 4)
    w, v = numerics.eigh(stack)
    root = numerics.sqrt_psd(stack)
    assert w.shape == (5, 4) and v.shape == root.shape == (5, 4, 4)
    for index, h in enumerate(stack):
        w1, v1 = numerics.eigh(h)
        assert np.array_equal(w[index], w1) and np.array_equal(v[index], v1)
        assert np.array_equal(root[index], numerics.sqrt_psd(h))
    w2, _ = numerics.eigh(stack.reshape(5, 1, 4, 4))
    assert np.array_equal(w2.reshape(5, 4), w)


def test_stack_with_one_bad_member_raises():
    rng = np.random.default_rng(13)
    stack = _psd_stack(rng, 3, 4)
    skewed = stack.copy()
    skewed[1, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError):
        numerics.eigh(skewed)
    with pytest.raises(NotHermitianError):
        numerics.sqrt_psd(skewed)
    shifted = stack.copy()
    shifted[2] -= 1e-6 * np.eye(4)
    with pytest.raises(NotPSDError):
        numerics.sqrt_psd(shifted)
    numerics.sqrt_psd(shifted[:2])


def test_support_of_a_stack_matches_per_member_calls():
    rng = np.random.default_rng(14)
    w = np.sort(rng.normal(size=(6, 5)), axis=-1)
    w[0] = [0.0, 0.0, 1e-11, 1e-9, 1.0]
    w[1] = -np.abs(w[1])
    keep = numerics.support(w, 1e-2)
    assert keep.shape == w.shape
    for index, member in enumerate(w):
        assert np.array_equal(keep[index], numerics.support(member, 1e-2))
    assert np.array_equal(numerics.support(w[0]), [False, False, False, True, True])


def test_support_comparison_is_strict():
    at = numerics.support(np.array([0.0, 1e-10, 1.0]), 1e-10)
    above = numerics.support(np.array([0.0, np.nextafter(1e-10, 1.0), 1.0]), 1e-10)
    assert at.tolist() == [False, False, True]
    assert above.tolist() == [False, True, True]


def test_support_of_a_spectrum_without_a_positive_eigenvalue_is_empty():
    for w in (np.zeros(3), np.array([-2.0, -1.0]), np.array([-1.0, 0.0])):
        assert not numerics.support(w).any()
    assert numerics.support(np.zeros(0)).shape == (0,)
    assert numerics.support(np.zeros((3, 0))).shape == (3, 0)
    stack = numerics.support(np.array([[-1.0, 0.0], [0.0, 0.0], [0.5, 1.0]]))
    assert stack.tolist() == [[False, False], [False, False], [True, True]]


def _hermitian_part(h):
    """(h + h^dag)/2, computed in full: the reference the kernel must match."""
    return (h + h.conj().swapaxes(-1, -2)) / 2.0


def _with_signed_zeros(rng, h):
    """``h`` with a third of its entry pairs zeroed and every zero part given a
    random sign: still Hermitian entry for entry."""
    zero = rng.random(h.shape) < 1 / 3
    h = np.where(zero | zero.swapaxes(-1, -2), 0.0, h)
    parts = h.view(np.float64)
    parts[(parts == 0.0) & (rng.random(parts.shape) < 0.5)] = -0.0
    return h


@pytest.mark.parametrize("dim", [2, 5, 25, 26, 40])
@pytest.mark.parametrize("kind", ["exact", "perturbed", "signed_zeros", "stack"])
def test_spectra_are_lapack_on_the_hermitian_part_bit_for_bit(dim, kind):
    # eigh and eigenvalues check, then symmetrize: the results are those of
    # LAPACK on (h + h^dag)/2, exactly
    rng = np.random.default_rng(dim)
    h = random_hermitian(rng, dim)
    if kind == "perturbed":
        h = h + 1e-15 * rng.normal(size=(dim, dim))
    elif kind == "signed_zeros":
        h = _with_signed_zeros(rng, h)
    elif kind == "stack":
        h = np.stack([h, random_hermitian(rng, dim)])
    sym = _hermitian_part(h)
    w, v = numerics.eigh(h)
    want_w, want_v = np.linalg.eigh(sym)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    want = want_w if dim <= 25 else np.linalg.eigvalsh(sym)
    assert np.array_equal(numerics.eigenvalues(h), want)


def test_check_hermitian_reports_its_deviation():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 6)
    skewed = h.copy()
    skewed[4, 1] += 3e-13
    # equal entry for entry, with a -0 that (h + h^dag)/2 turns into +0
    signed = np.array([[1.0, complex(-0.0, 0.5)], [complex(-0.0, -0.5), 1.0]])
    for passing in (h, skewed, signed):
        assert numerics.check_hermitian(passing) is None
    skewed[4, 1] += 1e-9
    with pytest.raises(NotHermitianError, match="max deviation 1.000e-09"):
        numerics.check_hermitian(skewed)
    for bad in (np.inf, np.nan):
        broken = h.copy()
        broken[2, 3] = broken[3, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NotHermitianError,
                                                          match="max deviation nan"):
            numerics.check_hermitian(broken)


@pytest.mark.parametrize("dim", [4, 25, 26, 36])
def test_a_deviation_of_1e9_still_raises(dim):
    rng = np.random.default_rng(dim)
    skewed = random_hermitian(rng, dim)
    skewed[dim - 1, 0] += 1e-9
    for solve in (numerics.eigh, numerics.eigenvalues):
        with pytest.raises(NotHermitianError, match="max deviation 1.000e-09"):
            solve(skewed)
