"""Text serialization of value tables.

Layout: one header line `n=<int> kind=<real|complex>`, then exactly
2^n data lines.  Line x holds the value at point index x under the bit
convention of `spectrum`.  Real kind: one decimal per line.  Complex
kind: `<re> <im>`.  Any other kind is a FormatError at line 1.  Floats
are written with shortest round-trip repr, so write/read is lossless and
a fixed table always produces byte-identical files.  The reader checks
the header's n against the table cap (`spectrum.check_table_dim`) before
it allocates the 2^n table.  Only blank lines may follow the data lines.

Both directions go through the table in chunks of `_CHUNK` lines, so
their temporaries stay bounded at any n.  Within a chunk the writer
formats each distinct float64 bit pattern (each distinct (re, im) pair
of them for two columns) once, and the reader parses each distinct line
once: the paper's families have constant weights, so a table holds few
distinct values.  The files are byte for byte those of formatting every
value on its own with repr, the parsed tables bit for bit those of
parsing every line, and a FormatError names the earliest bad line.

The reader and writer take a path or an open file; a file the caller
opened is left open.
"""

from __future__ import annotations

import contextlib
import math
from itertools import islice

import numpy as np

from .errors import FormatError
from .spectrum import HypercubeFunction, _adopt, check_table_dim

KINDS = ("real", "complex")

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


def write_function(path_or_file, f: HypercubeFunction) -> None:
    """Write a value table as the kind its dtype names: real for float64,
    complex for complex128, even with all imaginary parts zero."""
    real = f.is_real
    with _open_maybe(path_or_file, "w") as fh:
        fh.write(f"n={f.n} kind={'real' if real else 'complex'}\n")
        for lo in range(0, f.values.size, _CHUNK):
            fh.write(_format_chunk(f.values[lo : lo + _CHUNK], real))


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


def read_function(path_or_file, max_table_n: int | None = None) -> HypercubeFunction:
    """Parse a value table; FormatError (with line number) on malformed
    input, ResourceLimitError when the header's n exceeds the table cap."""
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
    return _adopt(HypercubeFunction, n, table)
