"""Serialization round trips and strict parsing."""

import io
import tracemalloc

import numpy as np
import pytest

import oracles as orc
from cubespec import (
    FormatError,
    HypercubeFunction,
    ResourceLimitError,
    normalized_real,
    read_function,
    theorem_params,
    unimodular_complex,
    write_function,
)

RNG = np.random.default_rng(7)


def dump(f):
    buf = io.StringIO()
    write_function(buf, f)
    return buf.getvalue()


class TestRoundTrip:
    def test_real_function_exact(self, tmp_path):
        f = HypercubeFunction(3, RNG.uniform(-5, 5, 8))
        path = tmp_path / "f.txt"
        write_function(path, f)
        back = read_function(path)
        assert back.n == 3
        assert back.values.dtype == np.float64 and back.values.tobytes() == f.values.tobytes()

    def test_complex_function_exact(self, tmp_path):
        vals = RNG.uniform(-2, 2, 16) + 1j * RNG.uniform(-2, 2, 16)
        path = tmp_path / "g.txt"
        write_function(path, HypercubeFunction(4, vals))
        back = read_function(path)
        assert back.values.dtype == np.complex128 and back.values.tobytes() == vals.tobytes()

    def test_repeated_writes_byte_identical(self, tmp_path):
        f = HypercubeFunction(5, RNG.uniform(-3, 3, 32))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_function(a, f)
        write_function(b, f)
        assert a.read_bytes() == b.read_bytes()

    def test_file_like_objects_accepted(self):
        f = HypercubeFunction(1, np.array([1.0, -0.5]))
        text = dump(f)
        assert read_function(io.StringIO(text)).values.tobytes() == np.array([1.0, -0.5]).tobytes()


class TestLayout:
    def test_real_layout_frozen(self):
        assert dump(HypercubeFunction(1, np.array([1.0, -0.5]))) == "n=1 kind=real\n1.0\n-0.5\n"

    def test_complex_layout_frozen(self):
        f = HypercubeFunction(1, np.array([1 + 2j, 3 - 1j]))
        assert dump(f) == "n=1 kind=complex\n1.0 2.0\n3.0 -1.0\n"

    def test_complex_table_with_zero_imaginary_parts_is_written_complex(self):
        f = HypercubeFunction(1, np.array([1 + 0j, -0.5 - 0j]))
        assert dump(f) == "n=1 kind=complex\n1.0 0.0\n-0.5 0.0\n"

    def test_real_values_in_a_complex_table_round_trip_as_complex(self):
        # two columns for real values come from the table's dtype alone;
        # a -0.0 imaginary part keeps its sign through the file
        vals = np.array([complex(1.0, 0.0), complex(-0.5, -0.0), complex(0.0, 0.0), complex(2.0, -0.0)])
        text = dump(HypercubeFunction(2, vals))
        assert text.startswith("n=2 kind=complex\n1.0 0.0\n-0.5 -0.0\n")
        back = read_function(io.StringIO(text))
        assert back.values.dtype == np.complex128 and back.values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("call", [
        lambda buf, f: write_function(buf, f, "real"),
        lambda buf, f: write_function(buf, f, kind="complex"),
    ])
    def test_the_kind_is_not_an_argument(self, call):
        buf = io.StringIO()
        with pytest.raises(TypeError):
            call(buf, HypercubeFunction(1, np.array([1.0, 2.0])))
        assert buf.getvalue() == ""

    @pytest.mark.parametrize("values", [[1.0, -0.5], [1 + 2j, 0j]])
    def test_imaginary_plane_scanned_at_most_once(self, monkeypatch, values):
        seen = []
        real_is_real = HypercubeFunction.is_real

        def spy(f):
            seen.append(f)
            return real_is_real.fget(f)

        monkeypatch.setattr(HypercubeFunction, "is_real", property(spy))
        dump(HypercubeFunction(1, np.array(values)))
        assert len(seen) == 1


class TestParseErrors:
    def test_bad_header(self):
        with pytest.raises(FormatError) as exc:
            read_function(io.StringIO("dimension 2\n1.0\n"))
        assert exc.value.line == 1

    def test_unknown_kind_token(self):
        with pytest.raises(FormatError):
            read_function(io.StringIO("n=1 kind=quaternion\n1.0\n1.0\n"))

    def test_bad_float_reports_line(self):
        text = "n=2 kind=real\n1.0\nbogus\n2.0\n3.0\n"
        with pytest.raises(FormatError) as exc:
            read_function(io.StringIO(text))
        assert exc.value.line == 3

    @pytest.mark.parametrize("header", ["n=x kind=real", "n=-1 kind=real"])
    def test_bad_header_dimension(self, header):
        with pytest.raises(FormatError) as exc:
            read_function(io.StringIO(header + "\n1.0\n"))
        assert exc.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("n=1 kind=real\n1.0\nnan\n", 3),
        ("n=1 kind=real\ninf\n1.0\n", 2),
        ("n=1 kind=complex\n1.0 0.0\n1.0 -inf\n", 3),
    ])
    def test_non_finite_value_reports_line(self, text, line):
        with pytest.raises(FormatError, match="non-finite") as exc:
            read_function(io.StringIO(text))
        assert exc.value.line == line

    def test_too_few_rows(self):
        with pytest.raises(FormatError):
            read_function(io.StringIO("n=2 kind=real\n1.0\n2.0\n"))

    def test_trailing_rows_rejected(self):
        with pytest.raises(FormatError):
            read_function(io.StringIO("n=1 kind=real\n1.0\n2.0\n3.0\n"))

    def test_wrong_column_count(self):
        with pytest.raises(FormatError):
            read_function(io.StringIO("n=1 kind=complex\n1.0\n1.0 0.0\n"))

    def test_empty_file(self):
        with pytest.raises(FormatError):
            read_function(io.StringIO(""))

    def test_function_reader_rejects_spectrum_kind(self):
        # value tables are the one file kind: spectrum is an unknown kind
        text = "n=1 kind=spectrum\n0.5 0.0\n0.5 0.0\n"
        with pytest.raises(FormatError) as exc:
            read_function(io.StringIO(text))
        assert str(exc.value) == "unknown kind 'spectrum'"
        assert exc.value.line == 1


class TestTableCap:
    """A header n above the cap is refused before the 2^n table exists."""

    @pytest.mark.parametrize("n", [27, 40, 64, 70])
    def test_function_header_above_default_cap(self, n):
        with pytest.raises(ResourceLimitError):
            read_function(io.StringIO(f"n={n} kind=real\n"))

    def test_function_reader_takes_the_callers_cap(self):
        text = "n=1 kind=real\n1.0\n-1.0\n"
        with pytest.raises(ResourceLimitError):
            read_function(io.StringIO(text), max_table_n=0)
        assert read_function(io.StringIO(text), max_table_n=1).values.tolist() == [1.0, -1.0]


def _ones(count):
    return "1.0\n" * count


class TestReaderErrorsExact:
    """Each malformed file's exact FormatError message and line number."""

    @pytest.mark.parametrize("text, message, line", [
        pytest.param("n=2 kind=real\n1.0\n2.0\n3.0\n",
                     "file ends after 3 of 4 data lines", 5, id="one-line-short"),
        pytest.param("n=13 kind=real\n" + _ones(4096),
                     "file ends after 4096 of 8192 data lines", 4098, id="ends-on-4096-lines"),
        pytest.param("n=1 kind=real\n1.0\n2.0\n3.0\n",
                     "trailing data after 2 lines", 4, id="trailing-row"),
        pytest.param("n=1 kind=complex\n1.0 0.0\n1.0\n",
                     "expected 2 value(s) per line for kind=complex, got 1", 3, id="one-column"),
        pytest.param("n=1 kind=complex\n1.0 0.0\n1.0 x\n",
                     "unparseable value on line 3", 3, id="bad-second-column"),
        pytest.param("n=2 kind=real\n1.0\nnan\n1.0\nnan\n",
                     "non-finite value on line 3", 3, id="non-finite-repeated"),
        pytest.param("n=2 kind=complex\n1.0 0.0\n1.0 0.0\n1.0 inf\n1.0 0.0\n",
                     "non-finite value on line 4", 4, id="non-finite-after-repeats"),
        pytest.param("n=2 kind=real\n1.0\nfoo\nbar\n1.0\n",
                     "unparseable value on line 3", 3, id="first-of-two-bad"),
        pytest.param("n=2 kind=real\nbar\n1.0\nfoo\nbar\n",
                     "unparseable value on line 2", 2, id="repeated-bad-first"),
        pytest.param("n=2 kind=real\n1.0\nbogus\n",
                     "unparseable value on line 3", 3, id="bad-line-then-eof"),
        pytest.param("n=13 kind=real\n" + _ones(4096) + "x\n" + _ones(4095),
                     "unparseable value on line 4098", 4098, id="bad-line-4098"),
        pytest.param("n=13 kind=real\n" + _ones(5000) + "x\n" + _ones(3191),
                     "unparseable value on line 5002", 5002, id="bad-line-5002"),
        pytest.param("n=13 kind=real\n" + _ones(5000) + "x\n" + _ones(100),
                     "unparseable value on line 5002", 5002, id="bad-line-5002-then-eof"),
    ])
    def test_message_and_line(self, text, message, line):
        with pytest.raises(FormatError) as exc:
            read_function(io.StringIO(text))
        assert str(exc.value) == message
        assert exc.value.line == line


class TestOnlyPlainAsciiNumbers:
    """Fields with "_" separators or non-ASCII characters are refused.

    int() and float() take both ("1_0.5" is 10.5, fullwidth digits are
    digits); the format has neither, and a stray non-ASCII byte in a file
    is a FormatError at its line, not a decode error.
    """

    @pytest.mark.parametrize("text, line", [
        pytest.param("n=1 kind=real\n1_0.5\n2.0\n", 2, id="underscore-real"),
        pytest.param("n=1 kind=real\n1.0\n2.0_0\n", 3, id="underscore-fraction"),
        pytest.param("n=1 kind=complex\n1.0 0.0\n1.0 1_0\n", 3, id="underscore-imag"),
        pytest.param("n=1 kind=real\n1.0\n\uff11.\uff15\n", 3, id="fullwidth-digits"),
        pytest.param("n=1 kind=real\n\u0661\n1.0\n", 2, id="arabic-indic-digit"),
        pytest.param("n=1 kind=complex\n1.0 0.0\n2.0\u00e9 0.0\n", 3, id="accent"),
    ])
    def test_data_field_rejected(self, text, line):
        with pytest.raises(FormatError) as exc:
            read_function(io.StringIO(text))
        assert str(exc.value) == f"unparseable value on line {line}"
        assert exc.value.line == line

    @pytest.mark.parametrize("header", ["n=0_1 kind=real", "n=\uff11 kind=real"])
    def test_header_dimension_rejected(self, header):
        with pytest.raises(FormatError) as exc:
            read_function(io.StringIO(header + "\n1.0\n2.0\n"))
        assert str(exc.value) == f"bad dimension in header {header!r}"
        assert exc.value.line == 1

    def test_non_ascii_byte_in_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"n=1 kind=real\n1.0\n2.0\xc3\xa9\n")
        with pytest.raises(FormatError) as exc:
            read_function(path)
        assert str(exc.value) == "unparseable value on line 3"
        assert exc.value.line == 3

    def test_non_ascii_byte_in_header(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"n=1\xff kind=real\n1.0\n2.0\n")
        with pytest.raises(FormatError, match="^bad dimension in header ") as exc:
            read_function(path)
        assert exc.value.line == 1

    def test_non_ascii_byte_after_table(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"n=1 kind=real\n1.0\n2.0\n\n\xe9\n")
        with pytest.raises(FormatError) as exc:
            read_function(path)
        assert str(exc.value) == "trailing data after 2 lines"
        assert exc.value.line == 5

    def test_plain_fields_still_read(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"n=01 kind=real\n+1e1\n-.5\n")
        assert read_function(path).values.tolist() == [10.0, -0.5]


class TestTrailingText:
    """Only blank lines may follow the 2^n data lines, however many."""

    @pytest.mark.parametrize("tail, line", [
        ("\n99\n", 5),
        ("   \nfoo bar\n", 5),
        ("\t\n\n \n1.0", 7),
        ("\n" * 5000 + "x\n", 5004),
    ])
    def test_text_after_blank_lines_rejected(self, tail, line):
        with pytest.raises(FormatError) as exc:
            read_function(io.StringIO("n=1 kind=real\n1.0\n2.0\n" + tail))
        assert str(exc.value) == "trailing data after 2 lines"
        assert exc.value.line == line

    @pytest.mark.parametrize("tail", ["", "\n", "  \n\t\n\n", "\n" * 5000, "\r\n \r\n"])
    def test_blank_lines_accepted(self, tail):
        f = read_function(io.StringIO("n=1 kind=real\n1.0\n2.0\n" + tail))
        assert f.values.tolist() == [1.0, 2.0]


def reference_text(table, n, kind):
    return "".join(orc.line_by_line_format(table, n, kind))


def assert_reads_like_reference(text):
    n, _, table = orc.line_by_line_read(io.StringIO(text))
    back = read_function(io.StringIO(text))
    assert back.n == n
    assert back.values.tobytes() == table.tobytes()


def random_table(n, complex_):
    rng = np.random.default_rng(1000 + n)
    values = rng.standard_normal(1 << n) * 10.0 ** rng.integers(-300, 300, 1 << n)
    if complex_:
        values = values + 1j * rng.standard_normal(1 << n)
    return HypercubeFunction(n, values)


class TestMatchesLineByLine:
    """Chunked files are byte for byte, and read tables bit for bit, the
    line-by-line writer's and reader's (tests/oracles.py)."""

    @pytest.mark.parametrize("n", range(19))
    @pytest.mark.parametrize("family, kind", [(normalized_real, "real"), (unimodular_complex, "complex")])
    def test_constant_weight_families(self, n, family, kind):
        if n == 0:
            f = HypercubeFunction(0, np.array([1.0 if kind == "real" else 0.6 + 0.8j]))
        else:
            f = family(theorem_params(n))
        text = dump(f)
        assert text == reference_text(f.values, n, kind)
        assert_reads_like_reference(text)

    @pytest.mark.parametrize("n", [3, 13, 16])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_seeded_random_weights(self, n, complex_):
        f = random_table(n, complex_)
        text = dump(f)
        assert text == reference_text(f.values, n, "complex" if complex_ else "real")
        assert_reads_like_reference(text)

    @pytest.mark.parametrize("kind", [None, "complex"])
    def test_signed_zeros_subnormals_and_swapped_pairs(self, kind):
        values = [0.0, -0.0, 5e-324, -5e-324, 0.0, -0.0, 5e-324, 1.0]
        if kind == "complex":
            values = [complex(0.0, -0.0), complex(-0.0, 0.0), 1 + 2j, 2 + 1j,
                      complex(5e-324, 0.0), complex(0.0, 5e-324), 1 + 2j, complex(-0.0, -0.0)]
        f = HypercubeFunction(3, np.array(values))
        text = dump(f)
        assert text == reference_text(f.values, 3, kind or "real")
        assert_reads_like_reference(text)

    def test_repeats_across_chunk_boundaries(self):
        # period 7 never lines up with the 4096-line chunks
        index = np.arange(1 << 14)
        f = HypercubeFunction(14, (index % 7 - 3.0) + 1j * (index % 5 * 0.1))
        text = dump(f)
        assert text == reference_text(f.values, 14, "complex")
        assert_reads_like_reference(text)

    @pytest.mark.parametrize("kind", [None, "complex"])
    @pytest.mark.parametrize("via_path", [False, True])
    def test_crlf_and_padded_fields(self, tmp_path, kind, via_path):
        f = unimodular_complex(theorem_params(13)) if kind else normalized_real(theorem_params(13))
        header, *rows = dump(f).splitlines()
        text = header + "\r\n" + "".join(f"  {'   '.join(r.split())} \t\r\n" for r in rows)
        if via_path:
            path = tmp_path / "crlf.txt"
            path.write_bytes(text.encode("ascii"))
            back = read_function(path)
            n, _, table = orc.line_by_line_read(path)
        else:
            back = read_function(io.StringIO(text))
            n, _, table = orc.line_by_line_read(io.StringIO(text))
        assert back.n == n == 13
        assert back.values.tobytes() == table.tobytes() == f.values.tobytes()


def peak_bytes(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """Chunks bound the temporaries of a read or write at any n."""

    MiB = 1 << 20

    @pytest.mark.parametrize("family", [normalized_real, unimodular_complex])
    def test_write_peak_below_two_mib(self, tmp_path, family):
        f = family(theorem_params(18))
        assert peak_bytes(lambda: write_function(tmp_path / "f.txt", f)) <= 2 * self.MiB

    @pytest.mark.parametrize("family", [normalized_real, unimodular_complex])
    def test_read_peak_below_table_plus_two_mib(self, tmp_path, family):
        f = family(theorem_params(18))
        write_function(tmp_path / "f.txt", f)
        assert peak_bytes(lambda: read_function(tmp_path / "f.txt")) <= f.values.nbytes + 2 * self.MiB
