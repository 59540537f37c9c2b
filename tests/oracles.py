"""Reference implementations the tests trust.

Everything up to `point_values` is deliberately naive: plain Python
loops over all 2^n points and all 2^n masks, fsum for every accumulation,
no numpy. The production code has to agree with these on small instances,
and a handful of the numbers these produce are frozen as literals in the
test modules.

`concatenated` is the pair built by concatenating both tables at every
doubling step, from any start. The blocked P builder, the mirror and the
oracle's high half are held to it bit for bit, and every reference below
builds its pair with it.

The `whole_array_*` functions after it are the numpy versions of
`stats`, `influence`, `entropy`, the longdouble oracle and the closed
forms that reduced whole arrays at once (one array-sized temporary per
operation), and
`concatenated_popcounts` is the popcount table built by concatenation.
The blockwise code has to return exactly their bits, at any n.
`two_run_oracle_errors` is the split oracle that builds the high half
from (1, 0) and from (0, 1) and walks and transforms both planes; the
oracle, which reads Q from P's mirror, has to return its bits.
`decimal_closed_form` is the raw pair's influence and entropy at 60
digits, against which `closed_form` is held to a relative error bound.

`line_by_line_format` and `line_by_line_read` are the table writer and
reader that format and parse every line on its own; the chunked ones in
`cubespec.fileio` have to write the same bytes and read the same bits.

Conventions match the library: point index bit (i-1) = 0 means coordinate
i is +1, mask bit (i-1) set means coordinate i is in the subset, the
forward transform carries the 2^-n factor, logs are base 2.
"""

import decimal
import math

import numpy as np

from cubespec import spectrum, verify
from cubespec.construct import subset_products
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
    return 0.0 - np.sum(terms)  # +0.0 for a point mass


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


def whole_array_normalized_closed_form(a):
    """(influence, entropy, bound) of `normalized_closed_form`, whole arrays at once."""
    if a.size == 0:
        return 0.0, 0.0, 0.0
    a2 = a * a
    frac = a2 / (1.0 + a2)
    log2_a2 = 2.0 * np.log2(a)
    influence = float(np.sum(frac))
    entropy = float(-np.sum(frac * log2_a2) + np.sum(np.log1p(a * a) / math.log(2.0)))
    bound = float(-np.sum(a2 * log2_a2) / (1.0 + float(np.max(a2))))
    return influence, entropy, bound


def whole_array_closed_form(a):
    """`closed_form`'s fields by name, each from whole arrays at once.

    I = L sum p_i and H = -L sum p_i log2 a_i^2, with L = 2^T,
    T = sum log2(1 + a_i^2) and p_i = a_i^2 / (1 + a_i^2); where L passes
    the float range or some a_i < 2^-511, H is summed term by term in
    log2 domain.  The norm and influence saturate to inf, and an entropy
    of 0 reads +0.0.
    """

    def or_inf(fn, *args):
        try:
            return fn(*args)
        except OverflowError:
            return math.inf

    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a * a
        lg = np.log1p(a * a) / math.log(2.0)
        log2_a2 = 2.0 * np.log2(a)
        frac = a2 / (1.0 + a2)
        total, k = float(np.sum(lg)), float(np.sum(a * a))
        l2, l2_sq = or_inf(pow, 2.0, 0.5 * total), or_inf(pow, 2.0, total)
        if l2_sq < math.inf and a.min(initial=math.inf) >= 2.0**-511:
            entropy = 0.0 - l2_sq * float(np.sum(frac * log2_a2))
        else:
            terms = np.exp2(total - lg + log2_a2) * log2_a2
            terms[log2_a2 == 0.0] = 0.0
            entropy = 0.0 - float(np.sum(terms))
    return {
        "l2_norm": l2,
        "influence": l2_sq * float(np.sum(frac)) if l2_sq < math.inf else math.inf,
        "entropy": entropy,
        "total_mass": k,
    }


def decimal_closed_form(a):
    """(influence, entropy) of the raw pair for weights `a`, at 60 digits.

    I = L sum p_i and H = -L sum p_i log2 a_i^2, with L = prod(1 + a_i^2)
    and p_i = a_i^2 / (1 + a_i^2); each distinct weight (np.unique) is
    evaluated once and weighted by its count.  Rounded to float at the
    end, so a value past the float range reads inf.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        log_l = frac = weighted = decimal.Decimal(0)
        for v, count in zip(*np.unique(np.asarray(a, dtype=np.float64), return_counts=True)):
            a2 = decimal.Decimal(float(v)) ** 2
            p = a2 / (1 + a2)
            log_l += int(count) * (1 + a2).ln()
            frac += int(count) * p
            weighted += int(count) * p * a2.ln()
        l = log_l.exp()
        return float(l * frac), float(-l * weighted / decimal.Decimal(2).ln())


def decimal_constant_figures(v, n):
    """Closed-form figures of n equal weights v, at 60 digits, as floats.

    With w = v^2 and p = w / (1 + w): the unit-norm influence n p and
    entropy n (log2(1 + w) - p log2 w), the entropy lower bound
    -n w log2 w / (1 + w), the total mass n w, and the raw pair's
    influence L n p and entropy -L n p log2 w with L = (1 + w)^n.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ln2 = decimal.Decimal(2).ln()
        w = decimal.Decimal(float(v)) ** 2
        p = w / (1 + w)
        log2_w, log2_1w = w.ln() / ln2, (1 + w).ln() / ln2
        big_l = (n * (1 + w).ln()).exp()
        return {
            "influence": float(n * p),
            "entropy": float(n * (log2_1w - p * log2_w)),
            "bound": float(-n * w * log2_w / (1 + w)),
            "total_mass": float(n * w),
            "raw_influence": float(big_l * n * p),
            "raw_entropy": float(-big_l * n * p * log2_w),
        }


def concatenated(a, dtype=np.float64, start=(1.0, 1.0)):
    """The pair by concatenating [p + aq, p - aq] and [ap - q, -ap - q] per step."""
    p = np.full(1, start[0], dtype=dtype)
    q = np.full(1, start[1], dtype=dtype)
    for ai in a:
        ai = dtype(ai)
        aq = ai * q
        ap = ai * p
        p, q = np.concatenate([p + aq, p - aq]), np.concatenate([ap - q, -ap - q])
    return p, q


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

    p, q = concatenated(a64, ld)
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


def two_run_oracle_errors(a64):
    """The oracle's six error figures from both planes' walks and transforms.

    The high half is built twice, from (1, 0) and from (0, 1), and P and Q
    are both multiplied out, block by block, and both transformed, where
    `verify._oracle_errors` walks P alone and reads Q from the mirror
    Q(x) = (-1)^n P(~x).  Same split, same sums: the six figures have to
    agree bit for bit.  The leave-one-out products are taken one
    np.prod(np.delete(...)) at a time.
    """
    ld = np.longdouble
    a64 = np.asarray(a64, dtype=np.float64)
    n = a64.size
    a2 = np.square(a64.astype(ld))
    one_plus = 1.0 + a2
    big_l = ld(np.prod(one_plus))

    others = np.array([np.prod(np.delete(one_plus, i)) for i in range(n)], dtype=ld)
    target_const = 2.0 * big_l
    target_l2 = np.sqrt(big_l)
    target_infl = ld(np.sum(a2 * others))
    target_ent = ld(-np.sum(others * a2 * np.log2(a2)))

    m = min(n // 2, spectrum._BLOCK.bit_length() - 1)
    low = concatenated(a64[:m], ld)
    (u1, v1), (u2, v2) = (concatenated(a64[m:], ld, start) for start in ((1.0, 0.0), (0.0, 1.0)))
    high_pairs = (u1, u2), (v1, v2)
    low_hat, *high_hats = [[fwht_inplace(t.copy()) / ld(t.size) for t in pair]
                           for pair in (low, *high_pairs)]

    size = 1 << n
    block = min(size, spectrum._BLOCK)
    highs = [np.stack(pair, axis=1) for pair in high_pairs]
    lows = np.stack(low)
    buf = np.empty((2, block), dtype=ld)
    grid = buf.reshape(2, block >> m, 1 << m)
    peaks = []

    def leaf(lo, hi):
        rows = slice(lo >> m, hi >> m)
        pq = [np.einsum("rk,kc->rc", h[rows], lows, out=grid[k]).reshape(-1)
              for k, h in enumerate(highs)]
        linf = [np.maximum(x[np.argmax(x)], -x[np.argmin(x)]) for x in pq]
        l2_sq = [np.sum(np.multiply(x, x, out=x)) for x in pq]
        s = np.add(*pq, out=pq[0])
        dev = np.maximum(s[np.argmax(s)] - target_const, target_const - s[np.argmin(s)])
        peaks.append((dev, *linf))
        return np.array(l2_sq)

    l2_sums = verify._pairwise_sum(leaf, 0, size)
    dev, *linfs = np.max(peaks, axis=0)
    low_products, high_products = (subset_products(x, dtype=ld) for x in (a2[:m], a2[m:]))
    low_sums = [verify._low_sums(t, low_products, popcounts(m)) for t in low_hat]
    coeffs = [verify._row_figures(h, low_sums, high_products, popcounts(n - m)) for h in high_hats]
    lo, hi = target_l2, math.sqrt(2.0) * target_l2
    planes = [(
        abs(np.sqrt(l2_sq / ld(size)) - target_l2) / target_l2,
        max((lo - linf) / lo, (linf - hi) / hi, ld(0.0)),
        per_mask,
        abs(infl - target_infl) / max(abs(target_infl), ld(1e-300)),
        abs(ent - target_ent) / max(abs(target_ent), big_l),
    ) for l2_sq, linf, (per_mask, infl, ent) in zip(l2_sums, linfs, coeffs)]
    return (float(dev / target_const), *map(float, np.max(planes, axis=0)))


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
        table = np.empty(size, dtype=np.float64 if kind == "real" else np.complex128)
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
