"""Serialization round trips and strict parsing."""

import io

import numpy as np
import pytest

from cubespec import (
    FormatError,
    FourierSpectrum,
    HypercubeFunction,
    ParameterError,
    ResourceLimitError,
    read_function,
    read_spectrum,
    walsh_transform,
    write_function,
    write_spectrum,
)

RNG = np.random.default_rng(7)


def dump(f, kind=None):
    buf = io.StringIO()
    write_function(buf, f, kind=kind)
    return buf.getvalue()


class TestRoundTrip:
    def test_real_function_exact(self, tmp_path):
        f = HypercubeFunction(3, RNG.uniform(-5, 5, 8))
        path = tmp_path / "f.txt"
        write_function(path, f)
        back = read_function(path)
        assert back.n == 3
        assert np.array_equal(back.values, f.values.astype(complex))

    def test_complex_function_exact(self, tmp_path):
        vals = RNG.uniform(-2, 2, 16) + 1j * RNG.uniform(-2, 2, 16)
        path = tmp_path / "g.txt"
        write_function(path, HypercubeFunction(4, vals))
        assert np.array_equal(read_function(path).values, vals)

    def test_spectrum_exact(self, tmp_path):
        s = walsh_transform(HypercubeFunction(3, RNG.uniform(-1, 1, 8)))
        path = tmp_path / "s.txt"
        write_spectrum(path, s)
        back = read_spectrum(path)
        assert back.n == 3
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_repeated_writes_byte_identical(self, tmp_path):
        f = HypercubeFunction(5, RNG.uniform(-3, 3, 32))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_function(a, f)
        write_function(b, f)
        assert a.read_bytes() == b.read_bytes()

    def test_file_like_objects_accepted(self):
        f = HypercubeFunction(1, np.array([1.0, -0.5]))
        text = dump(f)
        assert np.array_equal(read_function(io.StringIO(text)).values, np.array([1 + 0j, -0.5]))


class TestLayout:
    def test_real_layout_frozen(self):
        assert dump(HypercubeFunction(1, np.array([1.0, -0.5]))) == "n=1 kind=real\n1.0\n-0.5\n"

    def test_complex_layout_frozen(self):
        f = HypercubeFunction(1, np.array([1 + 2j, 3 - 1j]))
        assert dump(f) == "n=1 kind=complex\n1.0 2.0\n3.0 -1.0\n"

    def test_real_values_can_be_forced_to_two_columns(self):
        f = HypercubeFunction(1, np.array([1.0, 2.0]))
        assert dump(f, kind="complex").startswith("n=1 kind=complex\n1.0 0.0\n")

    def test_real_kind_rejects_imaginary_parts(self):
        f = HypercubeFunction(1, np.array([1 + 2j, 0j]))
        with pytest.raises(ParameterError):
            dump(f, kind="real")

    @pytest.mark.parametrize("kind, values, reads", [
        (None, [1.0, -0.5], 1),
        (None, [1 + 2j, 0j], 1),
        ("real", [1.0, -0.5], 1),
        ("complex", [1.0, -0.5], 0),
    ])
    def test_imaginary_plane_scanned_at_most_once(self, monkeypatch, kind, values, reads):
        seen = []
        real_is_real = HypercubeFunction.is_real

        def spy(f):
            seen.append(f)
            return real_is_real.fget(f)

        monkeypatch.setattr(HypercubeFunction, "is_real", property(spy))
        dump(HypercubeFunction(1, np.array(values)), kind=kind)
        assert len(seen) == reads

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="real or complex"):
            dump(HypercubeFunction(1, np.array([1.0, 2.0])), kind="spectrum")

    def test_spectrum_layout_frozen(self):
        buf = io.StringIO()
        write_spectrum(buf, FourierSpectrum(1, np.array([0.25, 0.75], dtype=complex)))
        assert buf.getvalue() == "n=1 kind=spectrum\n0.25 0.0\n0.75 0.0\n"


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
        text = "n=1 kind=spectrum\n0.5 0.0\n0.5 0.0\n"
        with pytest.raises(FormatError):
            read_function(io.StringIO(text))

    def test_spectrum_reader_requires_spectrum_kind(self):
        with pytest.raises(FormatError):
            read_spectrum(io.StringIO("n=1 kind=real\n1.0\n1.0\n"))


class TestTableCap:
    """A header n above the cap is refused before the 2^n table exists."""

    @pytest.mark.parametrize("n", [27, 40, 64, 70])
    def test_function_header_above_default_cap(self, n):
        with pytest.raises(ResourceLimitError):
            read_function(io.StringIO(f"n={n} kind=real\n"))

    def test_spectrum_header_above_default_cap(self):
        with pytest.raises(ResourceLimitError):
            read_spectrum(io.StringIO("n=64 kind=spectrum\n0.5 0.0\n"))

    def test_function_reader_takes_the_callers_cap(self):
        text = "n=1 kind=real\n1.0\n-1.0\n"
        with pytest.raises(ResourceLimitError):
            read_function(io.StringIO(text), max_table_n=0)
        assert read_function(io.StringIO(text), max_table_n=1).values.tolist() == [1.0, -1.0]
