"""Text serialization of value tables and spectra.

Layout: one header line `n=<int> kind=<real|complex|spectrum>`, then
exactly 2^n data lines.  Line x holds the value at point (or mask)
index x under the bit convention of `spectrum`.  Real kind: one decimal
per line.  Complex and spectrum kinds: `<re> <im>`.  Floats are written
with shortest round-trip repr, so write/read is lossless and a fixed
table always produces byte-identical files.  Readers check the header's
n against the table cap (`spectrum.check_table_dim`) before they
allocate the 2^n table.

Every reader and writer takes a path or an open file; a file the caller
opened is left open.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator

import numpy as np

from .errors import FormatError, ParameterError
from .spectrum import FourierSpectrum, HypercubeFunction, _adopt, check_table_dim

KINDS = ("real", "complex", "spectrum")


def _open_maybe(path_or_file, mode: str):
    """A context for the file: a caller's open file stays open on exit."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, mode, encoding="ascii")


def _format_lines(table: np.ndarray, n: int, kind: str) -> Iterator[str]:
    yield f"n={n} kind={kind}\n"
    if kind == "real":
        for v in table:
            yield f"{float(v.real)!r}\n"
    else:
        for v in table:
            yield f"{float(v.real)!r} {float(v.imag)!r}\n"


def write_function(path_or_file, f: HypercubeFunction, kind: str | None = None) -> None:
    """Write a value table; kind defaults to real iff f has no imaginary part."""
    if kind not in (None, "real", "complex"):
        raise ParameterError(f"function kind must be real or complex, got {kind!r}")
    if kind != "complex":  # one scan of the imaginary plane settles both cases
        real = f.is_real
        if kind == "real" and not real:
            raise ParameterError("kind=real requested for a table with imaginary parts")
        kind = "real" if real else "complex"
    with _open_maybe(path_or_file, "w") as fh:
        fh.writelines(_format_lines(f.values, f.n, kind))


def write_spectrum(path_or_file, s: FourierSpectrum) -> None:
    with _open_maybe(path_or_file, "w") as fh:
        fh.writelines(_format_lines(s.coeffs, s.n, "spectrum"))


def _parse_header(line: str) -> tuple[int, str]:
    parts = line.split()
    if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("kind="):
        raise FormatError(f"malformed header {line.rstrip()!r}", line=1)
    try:
        n = int(parts[0][2:])
    except ValueError:
        raise FormatError(f"bad dimension in header {line.rstrip()!r}", line=1) from None
    kind = parts[1][5:]
    if n < 0:
        raise FormatError(f"negative dimension n={n}", line=1)
    if kind not in KINDS:
        raise FormatError(f"unknown kind {kind!r}", line=1)
    return n, kind


def _parse_value(fields: list[str], kind: str, lineno: int) -> complex:
    want = 1 if kind == "real" else 2
    if len(fields) != want:
        raise FormatError(
            f"expected {want} value(s) per line for kind={kind}, got {len(fields)}",
            line=lineno,
        )
    try:
        re = float(fields[0])
        im = float(fields[1]) if want == 2 else 0.0
    except ValueError:
        raise FormatError(f"unparseable value on line {lineno}", line=lineno) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise FormatError(f"non-finite value on line {lineno}", line=lineno)
    return complex(re, im)


def _read_table(path_or_file, max_table_n: int | None) -> tuple[int, str, np.ndarray]:
    with _open_maybe(path_or_file, "r") as fh:
        header = fh.readline()
        if not header:
            raise FormatError("empty file", line=1)
        n, kind = _parse_header(header)
        check_table_dim(n, max_table_n)
        size = 1 << n
        table = np.empty(size, dtype=np.complex128)
        for i in range(size):
            line = fh.readline()
            lineno = i + 2
            if not line:
                raise FormatError(f"file ends after {i} of {size} data lines", line=lineno)
            table[i] = _parse_value(line.split(), kind, lineno)
        extra = fh.readline()
    if extra.strip():
        raise FormatError(f"trailing data after {size} lines", line=size + 2)
    return n, kind, table


def read_function(path_or_file, max_table_n: int | None = None) -> HypercubeFunction:
    """Parse a value table; FormatError (with line number) on malformed
    input, ResourceLimitError when the header's n exceeds the table cap."""
    n, kind, table = _read_table(path_or_file, max_table_n)
    if kind == "spectrum":
        raise FormatError("file holds a spectrum, not a value table", line=1)
    return _adopt(HypercubeFunction, n, table)


def read_spectrum(path_or_file) -> FourierSpectrum:
    n, kind, table = _read_table(path_or_file, None)
    if kind != "spectrum":
        raise FormatError(f"file holds kind={kind}, not a spectrum", line=1)
    return _adopt(FourierSpectrum, n, table)
