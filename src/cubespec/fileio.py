"""Text serialization of value tables and spectra.

Layout: one header line `n=<int> kind=<real|complex|spectrum>`, then
exactly 2^n data lines.  Line x holds the value at point (or mask)
index x under the bit convention of `spectrum`.  Real kind: one decimal
per line.  Complex and spectrum kinds: `<re> <im>`.  Floats are written
with shortest round-trip repr, so write/read is lossless and a fixed
table always produces byte-identical files.  Readers check the header's
n against the table cap (`spectrum.check_table_dim`) before they
allocate the 2^n table.  Only blank lines may follow the data lines.

Both directions go through the table in chunks of `_CHUNK` lines, so
their temporaries stay bounded at any n.  Within a chunk the writer
formats each distinct float64 bit pattern (each distinct (re, im) pair
of them for two columns) once, and the reader parses each distinct line
once: the paper's families have constant weights, so a table holds few
distinct values.  The files are byte for byte those of formatting every
value on its own with repr, the parsed tables bit for bit those of
parsing every line, and a FormatError names the earliest bad line.

Every reader and writer takes a path or an open file; a file the caller
opened is left open.
"""

from __future__ import annotations

import contextlib
import math
from itertools import islice

import numpy as np

from .errors import FormatError, ParameterError
from .spectrum import FourierSpectrum, HypercubeFunction, _adopt, check_table_dim

KINDS = ("real", "complex", "spectrum")

# lines per chunk: bounds the temporaries of a read or write whatever n is
_CHUNK = 4096


def _open_maybe(path_or_file, mode: str):
    """A context for the file: a caller's open file stays open on exit."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return contextlib.nullcontext(path_or_file)
    # a stray non-ASCII byte reads as a lone surrogate, which _number
    # rejects like any other bad field, instead of failing the decode
    return open(path_or_file, mode, encoding="ascii", errors="surrogateescape")


def _number(text: str, convert):
    # int() and float() also take "_" digit separators and non-ASCII
    # digits; the format has neither
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return convert(text)


def _format_chunk(chunk: np.ndarray, real: bool) -> str:
    """The data lines of `chunk`, each distinct value formatted once.

    Values are grouped by float64 bit pattern, not by value, so 0.0 and
    -0.0 keep their own repr; two-column lines are built once per
    distinct (re, im) pair and gathered back into index order.
    """
    re_bits, re_of = np.unique(chunk.real.view(np.uint64), return_inverse=True)
    re_text = [repr(v) for v in re_bits.view(np.float64).tolist()]
    if real:
        lines = [f"{t}\n" for t in re_text]
        line_of = re_of
    else:
        im_bits, im_of = np.unique(chunk.imag.view(np.uint64), return_inverse=True)
        im_text = [repr(v) for v in im_bits.view(np.float64).tolist()]
        pairs, line_of = np.unique(re_of * im_bits.size + im_of, return_inverse=True)
        lines = [
            f"{re_text[i]} {im_text[j]}\n"
            for i, j in (divmod(k, im_bits.size) for k in pairs.tolist())
        ]
    return "".join(map(lines.__getitem__, line_of.tolist()))


def _write_table(fh, table: np.ndarray, n: int, kind: str) -> None:
    fh.write(f"n={n} kind={kind}\n")
    for lo in range(0, table.size, _CHUNK):
        fh.write(_format_chunk(table[lo : lo + _CHUNK], kind == "real"))


def write_function(path_or_file, f: HypercubeFunction, kind: str | None = None) -> None:
    """Write a value table; kind defaults to real iff f is real (float64).
    A complex f is refused kind=real, even with all imaginary parts zero."""
    if kind not in (None, "real", "complex"):
        raise ParameterError(f"function kind must be real or complex, got {kind!r}")
    if kind == "real" and not f.is_real:
        raise ParameterError("kind=real requested for a complex table")
    kind = kind or ("real" if f.is_real else "complex")
    with _open_maybe(path_or_file, "w") as fh:
        _write_table(fh, f.values, f.n, kind)


def write_spectrum(path_or_file, s: FourierSpectrum) -> None:
    with _open_maybe(path_or_file, "w") as fh:
        _write_table(fh, s.coeffs, s.n, "spectrum")


def _parse_header(line: str) -> tuple[int, str]:
    parts = line.split()
    if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("kind="):
        raise FormatError(f"malformed header {line.rstrip()!r}", line=1)
    try:
        n = _number(parts[0][2:], int)
    except ValueError:
        raise FormatError(f"bad dimension in header {line.rstrip()!r}", line=1) from None
    kind = parts[1][5:]
    if n < 0:
        raise FormatError(f"negative dimension n={n}", line=1)
    if kind not in KINDS:
        raise FormatError(f"unknown kind {kind!r}", line=1)
    return n, kind


def _parse_value(fields: list[str], kind: str, lineno: int) -> float | complex:
    want = 1 if kind == "real" else 2
    if len(fields) != want:
        raise FormatError(
            f"expected {want} value(s) per line for kind={kind}, got {len(fields)}",
            line=lineno,
        )
    try:
        re = _number(fields[0], float)
        im = _number(fields[1], float) if want == 2 else 0.0
    except ValueError:
        raise FormatError(f"unparseable value on line {lineno}", line=lineno) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise FormatError(f"non-finite value on line {lineno}", line=lineno)
    return re if want == 1 else complex(re, im)


def _parse_chunk(lines: list[str], kind: str, lineno: int, out: np.ndarray) -> None:
    """Parse `lines`, the first of which is line `lineno`, into `out`.

    Each distinct line is parsed once, in order of first occurrence, so
    the first one that fails is the chunk's earliest bad line.
    """
    slots = dict.fromkeys(lines)
    values = []
    for line in slots:
        try:
            value = _parse_value(line.split(), kind, lineno)
        except FormatError:
            break
        slots[line] = len(values)
        values.append(value)
    else:
        index = np.fromiter(map(slots.__getitem__, lines), dtype=np.intp, count=len(lines))
        np.take(np.array(values, dtype=out.dtype), index, out=out)
        return
    # raise the bad line's error again, now with its own line number
    _parse_value(line.split(), kind, lineno + lines.index(line))


def _read_table(path_or_file, max_table_n: int | None) -> tuple[int, str, np.ndarray]:
    with _open_maybe(path_or_file, "r") as fh:
        header = fh.readline()
        if not header:
            raise FormatError("empty file", line=1)
        n, kind = _parse_header(header)
        check_table_dim(n, max_table_n)
        size = 1 << n
        table = np.empty(size, dtype=np.float64 if kind == "real" else np.complex128)
        for lo in range(0, size, _CHUNK):
            want = min(_CHUNK, size - lo)
            lines = list(islice(fh, want))
            _parse_chunk(lines, kind, lo + 2, table[lo : lo + len(lines)])
            if len(lines) < want:
                read = lo + len(lines)
                raise FormatError(f"file ends after {read} of {size} data lines", line=read + 2)
        for lineno, line in enumerate(fh, size + 2):
            if line.strip():
                raise FormatError(f"trailing data after {size} lines", line=lineno)
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
