"""Reference implementations the tests trust.

Everything up to `point_values` is deliberately naive: plain Python
loops over all 2^n points and all 2^n masks, fsum for every accumulation,
no numpy. The production code has to agree with these on small instances,
and a handful of the numbers these produce are frozen as literals in the
test modules.

The `whole_array_*` functions after it are the numpy versions of
`stats`, `influence`, `entropy` and the longdouble oracle that reduced
whole tables at once (one table-sized temporary per operation), and
`concatenated_popcounts` is the popcount table built by concatenation.
The blockwise code has to return exactly their bits, at any n.

`line_by_line_format` and `line_by_line_read` are the table writer and
reader that format and parse every line on its own; the chunked ones in
`cubespec.fileio` have to write the same bytes and read the same bits.

Conventions match the library: point index bit (i-1) = 0 means coordinate
i is +1, mask bit (i-1) set means coordinate i is in the subset, the
forward transform carries the 2^-n factor, logs are base 2.
"""

import math

import numpy as np

from cubespec.construct import _pq_tables, subset_products
from cubespec.errors import FormatError
from cubespec.fileio import _open_maybe, _parse_header, _parse_value
from cubespec.spectrum import (
    ZERO_WEIGHT_CUTOFF,
    SpectralStats,
    check_table_dim,
    fwht_inplace,
    popcounts,
)


def bits(x):
    return bin(x).count("1")


def transform(values):
    """All 2^n Fourier coefficients of a value table, by the definition."""
    size = len(values)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("table length must be a power of two")
    out = []
    for mask in range(size):
        re, im = [], []
        for x in range(size):
            z = complex(values[x])
            if bits(mask & x) & 1:
                z = -z
            re.append(z.real)
            im.append(z.imag)
        out.append(complex(math.fsum(re) / size, math.fsum(im) / size))
    return out


def weights(coeffs):
    return [c.real * c.real + c.imag * c.imag for c in coeffs]


def influence(coeffs):
    return math.fsum(w * bits(m) for m, w in enumerate(weights(coeffs)))


def entropy(coeffs, cutoff=1e-300):
    # 0 log 0 = 0, and anything below the cutoff counts as an exact zero
    return math.fsum(-w * math.log2(w) for w in weights(coeffs) if w >= cutoff)


def l2(values):
    return math.sqrt(math.fsum(abs(complex(v)) ** 2 for v in values) / len(values))


def linf(values):
    return max(abs(complex(v)) for v in values)


def pair_tables(a):
    """Both recursion tables as plain lists, one doubling per parameter.

    First half of each table is the fresh coordinate at +1, second half
    at -1, same layout as the point index convention above.
    """
    p, q = [1.0], [1.0]
    for ai in a:
        ai = float(ai)
        p, q = (
            [x + ai * y for x, y in zip(p, q)] + [x - ai * y for x, y in zip(p, q)],
            [ai * x - y for x, y in zip(p, q)] + [-ai * x - y for x, y in zip(p, q)],
        )
    return p, q


def clamped_sum(n, c):
    """Value table of the clipped normalized coordinate sum."""
    root = math.sqrt(n)
    out = []
    for x in range(1 << n):
        s = (n - 2 * bits(x)) / root
        out.append(max(-c, min(c, s)))
    return out


def point_values(a, point):
    """P and Q at one point by the scalar doubling recursion, one branch per bit.

    Bit i of the point set means coordinate i + 1 is -1; same operation
    order as the table builder, so the results match it bit for bit.
    """
    bits = format(point, f"0{len(a)}b")[::-1] if a else ""
    p = q = 1.0
    for ai, bit in zip(map(float, a), bits):
        aq = ai * q
        ap = ai * p
        if bit == "1":
            p, q = p - aq, -ap - q
        else:
            p, q = p + aq, ap - q
    return p, q


def whole_array_influence_sum(w, n):
    return np.sum(w * popcounts(n))


def whole_array_entropy_sum(w):
    live = w >= ZERO_WEIGHT_CUTOFF
    if not live.any():
        return w.dtype.type(0.0)
    if not live.all():
        w = w[live]
    terms = np.log2(w)
    np.multiply(w, terms, out=terms)
    return -np.sum(terms)


def whole_array_stats(f):
    """`stats` with every reduction over the whole table at once."""
    values = f.values
    real = bool(np.all(values.imag == 0.0))
    if real:
        plane = values.real
        l2_sq = np.sum(plane * plane)
        linf = np.max(np.abs(plane))
        table = plane.copy()
    else:
        l2_sq = np.sum(values.real ** 2 + values.imag ** 2)
        linf = np.max(np.abs(values))
        table = values.copy()
    fwht_inplace(table)
    table *= math.ldexp(1.0, -f.n)
    if real:
        w = np.multiply(table, table, out=table)
    else:
        np.multiply(table.real, table.real, out=table.real)
        np.multiply(table.imag, table.imag, out=table.imag)
        w = np.add(table.real, table.imag)
    return SpectralStats(
        l2_norm=math.sqrt(float(l2_sq) * math.ldexp(1.0, -f.n)),
        linf_norm=float(linf),
        influence=float(whole_array_influence_sum(w, f.n)),
        entropy=float(whole_array_entropy_sum(w)),
        total_weight=float(np.sum(w)),
    )


def whole_array_oracle_errors(a64, max_table_n=None):
    """The oracle's six error figures with whole-table longdouble temporaries."""
    ld = np.longdouble
    a64 = np.asarray(a64, dtype=np.float64)
    n = a64.size
    check_table_dim(n, max_table_n)
    a = a64.astype(ld)
    a2 = a * a
    one_plus = 1.0 + a2
    big_l = ld(np.prod(one_plus)) if n else ld(1.0)

    p, q = _pq_tables(a64, dtype=ld)
    s = p * p + q * q
    target_const = 2.0 * big_l
    err_const = float(np.max(np.abs(s - target_const)) / target_const)

    others = np.array([np.prod(np.delete(one_plus, i)) for i in range(n)], dtype=ld)
    target_l2 = np.sqrt(big_l)
    target_infl = ld(np.sum(a2 * others)) if n else ld(0.0)
    log2_a2 = np.log2(a2) if n else np.zeros(0, dtype=ld)
    target_ent = ld(-np.sum(others * a2 * log2_a2)) if n else ld(0.0)

    prod_table = subset_products(a2, dtype=ld)

    worst = (0.0,) * 5
    for table in (p, q):
        w = table.copy()
        fwht_inplace(w)
        w /= ld(1 << n)
        w *= w
        l2 = np.sqrt(np.sum(table * table) / ld(1 << n))
        linf = np.max(np.abs(table))
        lo, hi = target_l2, math.sqrt(2.0) * target_l2
        errs = (
            abs(l2 - target_l2) / target_l2,
            max((lo - linf) / lo, (linf - hi) / hi, ld(0.0)),
            np.max(np.abs(w - prod_table) / prod_table),
            abs(whole_array_influence_sum(w, n) - target_infl) / max(abs(target_infl), ld(1e-300)),
            abs(whole_array_entropy_sum(w) - target_ent) / max(abs(target_ent), big_l),
        )
        worst = tuple(map(max, worst, map(float, errs)))
    return (err_const, *worst)


def concatenated_popcounts(n):
    """popcount table by repeated concatenation, [pc, pc + 1]."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    return pc


def line_by_line_format(table, n, kind):
    """Header and data lines of a table file, one repr per value."""
    yield f"n={n} kind={kind}\n"
    if kind == "real":
        for v in table:
            yield f"{float(v.real)!r}\n"
    else:
        for v in table:
            yield f"{float(v.real)!r} {float(v.imag)!r}\n"


def line_by_line_read(path_or_file, max_table_n=None):
    """(n, kind, table) of a table file, one readline and parse per line.

    Only the line after the table is checked for trailing data.
    """
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
