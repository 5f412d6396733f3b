"""Ket expression grammar and state-file format."""

import numpy as np
import pytest

from qloss import parse_ket, parse_state_file
from qloss.errors import (
    EmptyStateError,
    InvalidParamsError,
    KetSyntaxError,
    LabelOutOfRangeError,
    StateFileError,
)
from qloss.states import DensityMatrix, StateVector


def test_four_term_superposition():
    state = parse_ket("|010> + |001> + |112> + |121>", (2, 3, 3))
    expected = np.zeros(18)
    for i, j, k in [(0, 1, 0), (0, 0, 1), (1, 1, 2), (1, 2, 1)]:
        expected[i * 9 + j * 3 + k] = 0.5
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_comma_labels_and_unicode_closer():
    state = parse_ket("|0,0⟩", (2, 2))
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_comma_and_compact_labels_agree():
    a = parse_ket("|0,1,0⟩", (2, 3, 3))
    b = parse_ket("|010>", (2, 3, 3))
    np.testing.assert_allclose(a.amplitudes, b.amplitudes)


def test_coefficient_quotient_of_sqrt():
    state = parse_ket("1/sqrt(2)*|00> - 1/sqrt(2)*|11>", (2, 2))
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(state.amplitudes, [s, 0, 0, -s], atol=1e-15)


def test_coefficient_forms():
    s3 = np.sqrt(3) / 2
    for text in ("1/2|00> + sqrt(3)/2|11>",
                 "0.5*|0,0> + sqrt(3/4)|1,1>",
                 "1/2 |00> + sqrt(0.75) |11>"):
        state = parse_ket(text, (2, 2))
        np.testing.assert_allclose(state.amplitudes, [0.5, 0, 0, s3], atol=1e-12)


def test_coefficient_products():
    state = parse_ket("2*3|01> + 6|10>", (2, 2))
    np.testing.assert_allclose(state.amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])


def test_leading_sign_and_accumulation():
    state = parse_ket("-|00> + |00> + |11>", (2, 2))
    np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_normalization_default_on():
    state = parse_ket("|00> + |11>", (2, 2))
    assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(1.0)


def test_normalize_off_keeps_exact_amplitudes():
    state = parse_ket("1/2|000> + 1/2|001> + 1/2|110> + 1/2|111>", (2, 2, 2),
                      normalize=False)
    assert state.amplitudes[0] == 0.5


def test_normalize_off_rejects_non_unit_norm():
    with pytest.raises(InvalidParamsError):
        parse_ket("2|00>", (2, 2), normalize=False)


def test_zero_superposition_is_empty():
    with pytest.raises(EmptyStateError):
        parse_ket("|00> - |00>", (2, 2))


@pytest.mark.parametrize("text", ["", "   "])
def test_empty_expression(text):
    with pytest.raises(EmptyStateError):
        parse_ket(text, (2, 2))


def test_label_out_of_range():
    with pytest.raises(LabelOutOfRangeError):
        parse_ket("|02>", (2, 2))


def test_syntax_error_reports_byte_offset():
    with pytest.raises(KetSyntaxError) as err:
        parse_ket("|0x>", (2, 2))
    assert err.value.offset == 2


def test_byte_offset_counts_utf8_bytes():
    # the closing bracket is 3 bytes long, so junk after it sits at byte 7
    with pytest.raises(KetSyntaxError) as err:
        parse_ket("|0,0⟩x", (2, 2))
    assert err.value.offset == 7


def test_unterminated_ket():
    with pytest.raises(KetSyntaxError):
        parse_ket("|00", (2, 2))


def test_missing_ket_after_coefficient():
    with pytest.raises(KetSyntaxError):
        parse_ket("1/2", (2, 2))


def test_wrong_label_count():
    with pytest.raises(KetSyntaxError):
        parse_ket("|0,1>", (2, 2, 2))


def test_large_dims_require_commas():
    with pytest.raises(KetSyntaxError):
        parse_ket("|00>", (2, 11))
    state = parse_ket("|0,10>", (2, 11))
    assert state.amplitudes[10] == 1.0


def test_division_by_ket_rejected():
    with pytest.raises(KetSyntaxError):
        parse_ket("1/|00>", (2, 2))


def test_state_file_with_ket():
    text = "dims: 2 3 3\nket: |010> + |001> + |112> + |121>\n"
    content = parse_state_file(text)
    assert content.kind == "ket" and content.dims == (2, 3, 3)
    assert isinstance(content.state, StateVector)
    expected = parse_ket("|010> + |001> + |112> + |121>", (2, 3, 3))
    assert np.array_equal(content.state.amplitudes, expected.amplitudes)


def test_state_file_with_rho():
    rows = ["0.5+0i 0+0i 0+0i 0.5+0i",
            "0+0i 0+0i 0+0i 0+0i",
            "0+0i 0+0i 0+0i 0+0i",
            "0.5+0i 0+0i 0+0i 0.5+0i"]
    text = "dims: 2 2\nrho:\n" + "\n".join(rows) + "\n"
    content = parse_state_file(text)
    assert content.kind == "rho" and content.dims == (2, 2)
    assert isinstance(content.state, DensityMatrix)
    assert content.state.matrix[0, 3] == pytest.approx(0.5)


def test_state_file_decimal_entries_are_bit_exact():
    text = "dims: 2 2\nrho:\n" + "\n".join([
        "0.1+0i 0+0i 0+0i 0+0i",
        "0+0i 0.2+0i 0+0i 0+0i",
        "0+0i 0+0i 0.3+0i 0+0i",
        "0+0i 0+0i 0+0i 0.4+0i"]) + "\n"
    content = parse_state_file(text)
    assert content.state.matrix[0, 0].real == float("0.1")
    assert content.state.matrix[3, 3].real == float("0.4")


def test_state_file_complex_entries():
    text = ("dims: 2 2\nrho:\n"
            "0.5+0i 0+0.5i 0+0i 0+0i\n"
            "0-0.5i 0.5+0i 0+0i 0+0i\n"
            "0+0i 0+0i 0+0i 0+0i\n"
            "0+0i 0+0i 0+0i 0+0i\n")
    content = parse_state_file(text)
    assert content.state.matrix[0, 1] == pytest.approx(0.5j)


def test_state_file_errors():
    with pytest.raises(StateFileError):
        parse_state_file("ket: |00>\n")
    with pytest.raises(StateFileError):
        parse_state_file("dims: 2 2\n")
    with pytest.raises(StateFileError):
        parse_state_file("dims: 2 2\nrho:\n1 0\n0 1\n")
    with pytest.raises(StateFileError):
        parse_state_file("dims: 2 2\nrho:\n" + "\n".join(["zz 0 0 0"] + ["0 0 0 0"] * 3))
    with pytest.raises(StateFileError):
        parse_state_file("dims: two two\nket: |00>\n")
