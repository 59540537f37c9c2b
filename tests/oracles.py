"""Reference implementations the tests trust.

Everything here is deliberately naive: plain Python loops over all 2^n
points and all 2^n masks, fsum for every accumulation, no numpy. The
production code has to agree with these on small instances, and a handful
of the numbers these produce are frozen as literals in the test modules.

Conventions match the library: point index bit (i-1) = 0 means coordinate
i is +1, mask bit (i-1) set means coordinate i is in the subset, the
forward transform carries the 2^-n factor, logs are base 2.
"""

import math


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
