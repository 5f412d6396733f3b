"""Generator-basis axioms and expansion round trips."""

import numpy as np
import pytest

from qloss.errors import DimensionMismatchError, InvalidDimensionError
from qloss.su_basis import expand_in_basis, generators

from oracles import random_hermitian, random_pure

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1.0, -1.0]).astype(complex),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_axioms(n):
    basis = generators(n)
    assert len(basis) == n * n - 1
    for a, ga in enumerate(basis):
        assert abs(np.trace(ga)) <= 1e-12
        assert np.abs(ga - ga.conj().T).max() <= 1e-12
        for b, gb in enumerate(basis):
            want = 2.0 if a == b else 0.0
            assert abs(np.trace(ga @ gb).real - want) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 14])
def test_stacked_is_one_shared_read_only_array(n):
    basis = generators(n)
    stack = basis.stacked()
    assert basis.stacked() is stack and generators(n).stacked() is stack
    assert stack.shape == (n * n - 1, n, n) and not stack.flags.writeable
    for index, matrix in enumerate(basis):
        assert matrix.base is stack and not matrix.flags.writeable
        assert np.array_equal(matrix, stack[index])
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0


def test_su2_is_pauli():
    basis = generators(2)
    np.testing.assert_allclose(basis[0], PAULI["x"])
    np.testing.assert_allclose(basis[1], PAULI["y"])
    np.testing.assert_allclose(basis[2], PAULI["z"])


def test_su3_count_and_labels():
    basis = generators(3)
    assert len(basis) == 8
    kinds = [label[0] for label in basis.labels]
    assert kinds == ["symmetric"] * 3 + ["antisymmetric"] * 3 + ["diagonal"] * 2


def test_su4_count():
    assert len(generators(4)) == 15


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        generators(1)


def test_basis_is_memoized_and_readonly():
    assert generators(3) is generators(3)
    with pytest.raises(ValueError):
        generators(3)[0][0, 0] = 5.0


def test_expand_maximally_mixed_is_zero():
    for n in (2, 3, 4):
        coeffs = expand_in_basis(np.eye(n) / n, generators(n))
        np.testing.assert_allclose(coeffs, np.zeros(n * n - 1), atol=1e-14)


def test_expand_pauli_z():
    coeffs = expand_in_basis(PAULI["z"], generators(2))
    np.testing.assert_allclose(coeffs, [0.0, 0.0, 2.0], atol=1e-14)


def test_expand_projector_saturates_purity_bound():
    proj = np.zeros((3, 3), dtype=complex)
    proj[0, 0] = 1.0
    coeffs = expand_in_basis(proj, generators(3))
    kinds = [label[0] for label in generators(3).labels]
    for c, kind in zip(coeffs, kinds):
        if kind != "diagonal":
            assert abs(c) <= 1e-14
    assert np.linalg.norm(coeffs) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-12)


def test_expand_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        expand_in_basis(np.eye(3), generators(2))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_expansion_round_trip(n):
    rng = np.random.default_rng(10 + n)
    basis = generators(n)
    for _ in range(20):
        h = random_hermitian(rng, n)
        coeffs = expand_in_basis(h, basis)
        rebuilt = np.trace(h) / n * np.eye(n, dtype=complex)
        for c, g in zip(coeffs, basis):
            rebuilt += 0.5 * c * g
        np.testing.assert_allclose(rebuilt, h, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pure_states_saturate_bloch_length(n):
    rng = np.random.default_rng(20 + n)
    basis = generators(n)
    bound = np.sqrt(2.0 * (n - 1) / n)
    for _ in range(10):
        psi = random_pure(rng, n)
        coeffs = expand_in_basis(np.outer(psi, psi.conj()), basis)
        assert np.linalg.norm(coeffs) == pytest.approx(bound, abs=1e-10)
    # genuinely mixed states fall strictly below the bound
    mixed = 0.6 * np.outer(psi, psi.conj()) + 0.4 * np.eye(n) / n
    assert np.linalg.norm(expand_in_basis(mixed, basis)) < bound - 1e-3
