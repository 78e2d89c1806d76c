import numpy as np
import pytest

from numrad import DimensionMismatch, ParseError, parse_matrix, render_matrix
from numrad.worked_examples import LOWER_TRIANGULAR_2 as T2, SHIFT_3 as T3

from conftest import random_complex


class TestJsonFormat:
    def test_spec_example(self):
        src = '{"n":2,"m":2,"entries":[[1,0],[0,0],[1,0],[1,0]]}'
        assert np.array_equal(parse_matrix(src), T2)

    def test_round_trip_bit_exact(self, rng):
        for n in (1, 2, 4):
            a = random_complex(rng, n, n + 1)
            again = parse_matrix(render_matrix(a, "json"))
            assert again.dtype == a.dtype and np.array_equal(again, a)

    def test_entry_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            parse_matrix('{"n":2,"m":2,"entries":[[1,0],[0,0],[1,0]]}')

    def test_bad_json_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_matrix('{"n":2,"m":2,"entries":[[1,0],')
        assert err.value.line is not None and err.value.column is not None

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_matrix('{"n":2,"entries":[]}')

    def test_bad_entry_shape(self):
        with pytest.raises(ParseError):
            parse_matrix('{"n":1,"m":1,"entries":[[1,0,0]]}')

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            parse_matrix('{"n":1,"m":1,"entries":[[1e400,0]]}')

    def test_oversized_integer_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_matrix('{"n":1,"m":2,"entries":[[1' + "0" * 400 + ',0],[0,0]]}')


class TestTextFormat:
    def test_spec_example(self):
        src = "3 3\n0 0 1 0 0 0\n0 0 0 0 2 0\n0 0 0 0 0 0"
        assert np.array_equal(parse_matrix(src), T3)

    def test_round_trip_bit_exact(self, rng):
        for n in (1, 3):
            a = random_complex(rng, n)
            again = parse_matrix(render_matrix(a, "text"))
            assert np.array_equal(again, a)

    def test_row_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            parse_matrix("2 2\n1 0 0 0\n1 0 1")

    def test_missing_rows(self):
        with pytest.raises(DimensionMismatch):
            parse_matrix("2 2\n1 0 0 0")

    def test_trailing_rows(self):
        with pytest.raises(DimensionMismatch):
            parse_matrix("1 1\n1 0\n2 0")

    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("1 2\n1 0 oops 0")
        assert err.value.line == 2
        assert err.value.column == 5

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_matrix("two 2\n1 0 1 0")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse_matrix("   \n  ")


def test_unknown_render_format():
    with pytest.raises(ValueError):
        render_matrix(T2, "yaml")
