"""Family builders against hand values, the slow reference, and the closed forms."""

import dataclasses
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from cubespec import construct, spectrum
from cubespec import verify as cs_verify
from cubespec import (
    ParamSeq,
    ParameterError,
    ResourceLimitError,
    build_pq,
    clamped_sum_l2_norm,
    closed_form,
    conjugate,
    evaluate_at,
    evaluate_many,
    neeman_function,
    normalized_closed_form,
    normalized_real,
    normalized_sum,
    popcounts,
    remark3_params,
    scale,
    stats,
    subset_products,
    theorem_params,
    unimodular_complex,
    walsh_transform,
)

RNG = np.random.default_rng(2025)

weight_lists = st.lists(
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False), min_size=1, max_size=6
)


def same_bits(got, want):
    # float64 by bytes; longdouble padding bytes are undefined, so by value and sign
    if got.dtype == np.float64:
        return got.tobytes() == want.tobytes()
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def brute(params):
    """Slow reference stats of the first recursion table."""
    p, _ = orc.pair_tables(list(params.a))
    co = orc.transform(p)
    return orc.l2(p), orc.linf(p), orc.influence(co), orc.entropy(co)


# With the block shrunk to 2^2..2^6 elements, n = 12 expands 10 down to
# 6 levels of block-rows depth first; smaller n take fewer, or none.
SMALL_BLOCKS = [1 << k for k in range(2, 7)]
BUILD_NS = range(13)


class TestRecursionTables:
    def test_base_case_is_two_constants(self):
        pair = build_pq(ParamSeq([]))
        assert pair.p.values.tolist() == [1.0]
        assert pair.q.values.tolist() == [1.0]

    def test_single_step_hand_values(self):
        pair = build_pq(ParamSeq([1.0]))
        assert pair.p.values.tolist() == [2.0, 0.0]
        assert pair.q.values.tolist() == [0.0, -2.0]

    def test_pair_holds_one_dimension(self):
        assert build_pq(ParamSeq([1.0, 0.5])).n == 2
        with pytest.raises(ParameterError, match="pair dimensions differ: 1 != 2"):
            construct.RSPair(spectrum.HypercubeFunction(1, [1, 1]),
                             spectrum.HypercubeFunction(2, [1] * 4))

    def test_two_step_hand_values(self):
        pair = build_pq(ParamSeq([1.0, 0.5]))
        assert pair.p.values.tolist() == [2.0, -1.0, 2.0, 1.0]
        assert pair.q.values.tolist() == [1.0, 2.0, -1.0, 2.0]
        squares = pair.p.values**2 + pair.q.values**2
        assert np.array_equal(squares, np.full(4, 5.0))

    def test_tables_match_reference_bit_for_bit(self):
        for n in range(1, 9):
            a = RNG.uniform(0.05, 1.0, n)
            pair = build_pq(ParamSeq(a))
            p, q = orc.pair_tables(list(a))
            assert pair.p.values.tolist() == p
            assert pair.q.values.tolist() == q

    @pytest.mark.parametrize("block", SMALL_BLOCKS + [spectrum._BLOCK])
    def test_unit_weights_keep_signed_zeros_of_concatenation_builder(self, monkeypatch, block):
        # a_i = 1 makes exact zeros; gen files print -0.0 and 0.0 differently
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        for n in range(1, 13):
            pair = build_pq(ParamSeq(np.ones(n)))
            p, q = orc.concatenated(np.ones(n))
            if n % 2:  # odd n: P and Q take the values 0 and +-2^((n+1)/2)
                assert np.count_nonzero(p == 0.0) and np.count_nonzero(q == 0.0)
            assert pair.p.values.dtype == pair.q.values.dtype == np.float64
            assert pair.p.values.tobytes() == p.tobytes()
            assert pair.q.values.tobytes() == q.tobytes()
            assert construct._p_table(np.ones(n), np.empty(1 << n)).tobytes() == p.tobytes()

    def test_squared_sum_constant_over_random_draws(self):
        # |P|^2 + |Q|^2 must be flat at 2 * prod(1 + a_i^2)
        for trial in range(100):
            n = int(RNG.integers(1, 13))
            a = RNG.uniform(0.05, 1.0, n)
            pair = build_pq(ParamSeq(a))
            squares = pair.p.values**2 + pair.q.values**2
            target = 2.0 * np.prod(1.0 + a * a)
            assert np.max(np.abs(squares - target)) <= 1e-12 * target

    def test_cap_enforced_before_allocation(self):
        with pytest.raises(ResourceLimitError):
            build_pq(ParamSeq([0.5] * 27))
        with pytest.raises(ResourceLimitError):
            build_pq(ParamSeq([0.5] * 6), max_table_n=5)


#: Weights for the blocked build: uniform draws, the all-ones pair (exact
#: zeros, whose signs the mirror must keep) and the theorem weights (the
#: one-value layout of ParamSeq)
BUILD_WEIGHTS = {
    "uniform": lambda n: np.random.default_rng(n).uniform(0.05, 1.0, n),
    "ones": np.ones,
    "theorem": lambda n: theorem_params(max(n, 1)).a[:n],
}


class TestDepthFirstBuild:
    """P alone by the blocked doubling, and Q as its mirror, against the
    concatenation builder, bit for bit."""

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("weights", list(BUILD_WEIGHTS))
    def test_p_and_its_mirror(self, monkeypatch, block, dtype, weights):
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        for n in BUILD_NS:
            a = BUILD_WEIGHTS[weights](n)
            p = construct._p_table(a, np.empty(1 << n, dtype=dtype))
            q = construct._mirror(p, n, np.empty_like(p))
            want_p, want_q = orc.concatenated(a, dtype)
            assert same_bits(p, want_p) and same_bits(q, want_q), n

    @pytest.mark.parametrize("block", SMALL_BLOCKS + [spectrum._BLOCK])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_stacked_tables_have_the_bits_of_each_alone(self, monkeypatch, block, dtype):
        # one table per weight row, the blocked levels included: each row
        # and its mirror are the concatenation builder's
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        for n in BUILD_NS:
            a = np.stack([BUILD_WEIGHTS[w](n) for w in BUILD_WEIGHTS])
            p = construct._p_table(a, np.empty((len(a), 1 << n), dtype=dtype))
            q = construct._mirror(p, n, np.empty_like(p))
            for row, got_p, got_q in zip(a, p, q):
                want_p, want_q = orc.concatenated(row, dtype)
                assert same_bits(got_p, want_p) and same_bits(got_q, want_q), n

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @pytest.mark.parametrize("weights", list(BUILD_WEIGHTS))
    def test_complex_planes(self, monkeypatch, block, weights):
        # P * c in the real plane, mirrored into the imaginary plane as Q * c;
        # c is taken at the real block size, which the weight reducer's
        # pieces follow
        for n in BUILD_NS:
            params = ParamSeq(BUILD_WEIGHTS[weights](n))
            c = construct._unit_modulus_factor(params)
            with monkeypatch.context() as mp:
                mp.setattr(spectrum, "_BLOCK", block)
                mp.setattr(construct, "_unit_modulus_factor", lambda params: c)
                got = construct._unimodular_table(params)
            p, q = orc.concatenated(params.a)
            assert got.real.copy().tobytes() == (p * c).tobytes(), n
            assert got.imag.copy().tobytes() == (q * c).tobytes(), n


class TestStreamingEvaluator:
    def test_base_case(self):
        p, q = evaluate_at(ParamSeq([]), 0)
        assert (p, q) == (1.0, 1.0)

    def test_single_step_positive_point(self):
        p, q = evaluate_at(ParamSeq([1.0]), 0)
        assert (p, q) == (2.0, 0.0)

    def test_matches_tables_on_every_point(self):
        for n in range(1, 11):
            a = ParamSeq(RNG.uniform(0.05, 1.0, n))
            pair = build_pq(a)
            for x in range(1 << n):
                p, q = evaluate_at(a, x)
                ref = max(1.0, abs(pair.p.values[x]), abs(pair.q.values[x]))
                assert abs(p - pair.p.values[x]) <= 1e-12 * ref
                assert abs(q - pair.q.values[x]) <= 1e-12 * ref

    def test_second_evaluation_order_at_n30(self):
        # rebuild each point value through a left-to-right 2x2 matrix
        # product, a different rounding order than the scalar recursion
        a = ParamSeq(RNG.uniform(0.05, 1.0, 30))
        for point in RNG.integers(0, 1 << 30, size=50):
            m = np.eye(2)
            for i, ai in enumerate(a.a):
                eps = -1.0 if (int(point) >> i) & 1 else 1.0
                m = np.array([[1.0, ai * eps], [ai * eps, -1.0]]) @ m
            pref, qref = m @ np.array([1.0, 1.0])
            p, q = evaluate_at(a, int(point))
            ref = max(1.0, abs(pref), abs(qref))
            assert abs(p - pref) <= 1e-12 * ref
            assert abs(q - qref) <= 1e-12 * ref

    def test_point_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            evaluate_at(ParamSeq([0.5]), 2)
        with pytest.raises(ParameterError):
            evaluate_at(ParamSeq([0.5]), -1)


class TestBatchedEvaluator:
    @pytest.mark.parametrize("n", range(13))
    def test_bit_identical_to_tables(self, n):
        # all-ones weights put exact zeros into the tables; tobytes compares their sign bits
        for a in (np.ones(n), RNG.uniform(0.05, 1.0, n)):
            params = ParamSeq(a)
            pair = build_pq(params)
            p, q = evaluate_many(params, range(1 << n))
            assert p.dtype == q.dtype == np.float64
            assert p.tobytes() == pair.p.values.tobytes()
            assert q.tobytes() == pair.q.values.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 23, 24, 25, 40, 300])
    def test_wide_and_narrow_loops_agree(self, monkeypatch, width):
        params = ParamSeq(RNG.uniform(0.05, 1.0, 70))
        rng = random.Random(width)
        points = [rng.getrandbits(70) for _ in range(width)]
        results = []
        for limit in (0, 10**9):  # every chunk wide, then every chunk narrow
            monkeypatch.setattr(construct, "_SCALAR_LOOP_MAX_POINTS", limit)
            results.append(evaluate_many(params, points))
        monkeypatch.undo()
        results.append(evaluate_many(params, points))  # the width picks the loop
        (p0, q0), *rest = results
        for p, q in rest:
            assert p.tobytes() == p0.tobytes() and q.tobytes() == q0.tobytes()

    @pytest.mark.parametrize("n, count", [(64, 50), (65, 50), (1000, 40), (10**6, 2)])
    def test_matches_scalar_reference(self, n, count):
        params = remark3_params(n, 4.0)
        rng = random.Random(n)
        points = [rng.getrandbits(n) for _ in range(count)] + [0, (1 << n) - 1]
        p, q = evaluate_many(params, points)
        a = params.a.tolist()
        for x, pv, qv in zip(points, p.tolist(), q.tolist()):
            assert (pv, qv) == orc.point_values(a, x)
        assert evaluate_at(params, points[0]) == (complex(p[0]), complex(q[0]))

    def test_chunked_batch_matches_one_point_at_a_time(self, monkeypatch):
        monkeypatch.setattr(construct, "_CHUNK_MAX_POINTS", 7)
        monkeypatch.setattr(spectrum, "_BLOCK", 64)
        params = ParamSeq(RNG.uniform(0.05, 1.0, 100))
        rng = random.Random(3)
        points = [rng.getrandbits(100) for _ in range(50)]
        p, q = evaluate_many(params, points)
        a = params.a.tolist()
        assert list(zip(p.tolist(), q.tolist())) == [orc.point_values(a, x) for x in points]

    def test_generator_is_read_one_chunk_at_a_time(self, monkeypatch):
        # 1000 points of 12.5 KB each: reading the whole generator into a
        # list first peaked at 15.8 MiB here, holding the previous chunk
        # while reading the next at 4.1 MiB (3.1 MiB now).  The wide
        # loop's arithmetic, which holds two chunk-wide vectors and takes
        # most of the time, is skipped; its signed-weight blocks are drawn.
        monkeypatch.setattr(construct, "_ufunc_doubling", lambda blocks, p, q: sum(1 for _ in blocks))
        n = 10**5
        params = remark3_params(n, 4.0)
        rng = random.Random(4)
        tracemalloc.start()
        try:
            p, q = evaluate_many(params, (rng.getrandbits(n) for _ in range(1000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.shape == q.shape == (1000,)
        assert peak <= 7 << 19, peak  # 3.5 MiB

    def test_empty_batch_and_zero_dimension(self):
        p, q = evaluate_many(ParamSeq([0.5, 0.5]), [])
        assert p.shape == q.shape == (0,)
        p, q = evaluate_many(ParamSeq([]), [0, 0, 0])
        assert p.tolist() == q.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("bad", [-1, 8, 1 << 70, 1.5, 2.0, "3", None])
    def test_bad_points_rejected(self, bad):
        with pytest.raises(ParameterError):
            evaluate_many(ParamSeq([0.5] * 3), [1, bad])
        with pytest.raises(ParameterError):
            evaluate_at(ParamSeq([0.5] * 3), bad)

    def test_numpy_integer_points(self):
        params = ParamSeq([0.5] * 3)
        p, q = evaluate_many(params, np.arange(8))
        assert p.tobytes() == evaluate_many(params, range(8))[0].tobytes()


def _reference_closed_form(a):
    # the closed forms as first written, one fresh temporary per operation
    a2 = a * a
    lg = np.log1p(a * a) / math.log(2.0)
    total = float(np.sum(lg))
    if a.size:
        pre = np.concatenate([[0.0], np.cumsum(lg)[:-1]])
        suf = np.concatenate([np.cumsum(lg[::-1])[-2::-1], [0.0]])
        others = np.exp2(pre + suf)
        log2_a2 = 2.0 * np.log2(a)
    else:
        others = np.zeros(0)
        log2_a2 = np.zeros(0)
    k = float(np.sum(a * a))
    l2 = 2.0 ** (0.5 * total)
    fields = {
        "n": a.size,
        "l2_norm": l2,
        "linf_lower": l2,
        "linf_upper": math.sqrt(2.0) * l2,
        "influence": float(np.sum(a2 * others)),
        "entropy": float(-np.sum(others * a2 * log2_a2)),
        "total_mass": k,
        "remark1_bound": k * math.exp(k),
        "log2_l2_sq": total,
    }
    return fields, log2_a2


_reference_normalized_closed_form = orc.whole_array_normalized_closed_form


CLOSED_FORM_WEIGHTS = [
    [],
    [1.0],
    [0.3],
    [0.3, 0.9],
    [1.0] * 5,
    [1e-300, 1.0, 0.5],
    RNG.uniform(1e-6, 1.0, 1000),
    np.full(10**6, math.sqrt(4.0 / 10**6)),
    RNG.uniform(0.001, 0.03, 10**6),
]


class TestClosedFormBuffers:
    @pytest.mark.parametrize("weights", CLOSED_FORM_WEIGHTS, ids=lambda w: f"n{len(w)}")
    def test_same_bits_as_reference(self, weights):
        params = ParamSeq(weights)
        fields, log2_a2 = _reference_closed_form(params.a)
        rep = closed_form(params)
        for name, value in fields.items():
            if name in ("influence", "entropy"):
                # the cumsum formula is itself off by ~1e-11 at n = 10^6:
                # test_within_1e_14_of_decimal_reference holds these
                assert math.isclose(getattr(rep, name), value, rel_tol=1e-10), name
            else:
                assert getattr(rep, name) == value, name
        assert rep.coeff_log_magnitude.tobytes() == log2_a2.tobytes()
        assert not rep.coeff_log_magnitude.flags.writeable
        ncf = normalized_closed_form(params)
        assert (ncf.influence, ncf.entropy, ncf.entropy_lower_bound) == (
            _reference_normalized_closed_form(params.a)
        )

    @pytest.mark.parametrize("weights", [
        lambda: theorem_params(10**6).a,
        lambda: remark3_params(10**6, 8.0).a,
        lambda: theorem_params(1000).a,
        lambda: remark3_params(1000, 8.0).a,
        lambda: np.random.default_rng(2025).uniform(1e-6, 1.0, 1000),
        lambda: [0.3, 0.9],
        lambda: [1e-300, 1.0, 0.5],
        lambda: [1.0] * 5,
    ], ids=["theorem-n10^6", "remark3-a8-n10^6", "theorem-n1000", "remark3-a8-n1000",
            "random-n1000", "n2", "tiny-one-half", "ones-n5"])
    def test_within_1e_14_of_decimal_reference(self, weights):
        # the prefix/suffix cumsum formulation read 9.9e-12 (theorem) and
        # 1.1e-11 (remark 3) here at n = 10^6, and 1e-14..2e-14 at n = 1000
        weights = weights()
        rep = closed_form(ParamSeq(weights))
        want_i, want_h = orc.decimal_closed_form(weights)
        assert abs(rep.influence - want_i) <= 1e-14 * want_i
        assert abs(rep.entropy - want_h) <= 1e-14 * want_h

    def test_working_memory_is_the_returned_array(self):
        # 8 MiB of the peak is coeff_log_magnitude; the cumsum
        # formulation peaked at 30.5 MiB
        for params in (theorem_params(10**6),
                       ParamSeq(np.random.default_rng(9).uniform(0.1, 1.0, 10**6))):
            tracemalloc.start()
            try:
                closed_form(params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 10 << 20, peak

    @pytest.mark.parametrize("weights, saturated", [
        (lambda: np.random.default_rng(0).uniform(1e-6, 1.0, 10**5),
         ("l2_norm", "linf_lower", "linf_upper", "influence", "entropy", "remark1_bound")),
        (lambda: np.random.default_rng(0).uniform(0.001, 0.05, 10**6),
         ("influence", "entropy", "remark1_bound")),
        (lambda: [1e-170] * 3 + [1.0] * 2048,
         ("l2_norm", "linf_lower", "linf_upper", "influence", "remark1_bound")),
        (lambda: [1e-300] * 5, ()),
        (lambda: [1.0] * 5000,
         ("l2_norm", "linf_lower", "linf_upper", "influence", "remark1_bound")),
    ], ids=["l2-overflow", "exp-overflow", "tiny-against-overflow", "tiny", "ones-n5000"])
    def test_no_floating_point_warnings(self, weights, saturated):
        # no np.errstate here: numpy's overflow and invalid warnings raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = closed_form(ParamSeq(weights()))
        for name in ("l2_norm", "linf_lower", "linf_upper", "influence", "entropy",
                     "total_mass", "remark1_bound", "log2_l2_sq"):
            value = getattr(rep, name)
            assert value == math.inf if name in saturated else math.isfinite(value), name


def _pieces(n):
    """The (lo, hi) pieces np.sum's pairwise split cuts [0, n) into."""
    out = []
    spectrum._pairwise_sum(lambda lo, hi: out.append((lo, hi)) or 0.0, 0, n)
    return out


def _runs(n, cuts, values):
    """Piecewise-constant weights: values[k] on [cuts[k-1], cuts[k])."""
    return np.repeat(values, np.diff([0, *cuts, n]))


def _same_value_pieces_of_two_lengths():
    # first and last piece hold 0.5, everything between 0.7; their lengths differ
    n = (1 << 16) + 1000
    pieces = _pieces(n)
    (_, first_hi), (last_lo, last_hi) = pieces[0], pieces[-1]
    assert first_hi != last_hi - last_lo
    return _runs(n, [first_hi, last_lo], [0.5, 0.7, 0.5])


# weight factories, so the million-entry arrays exist one test at a time
NORMALIZED_WEIGHTS = {
    **{f"const-n{n}": lambda n=n: np.full(n, 0.3) for n in
       (1, 127, 128, 129, 32767, 32768, 32769, 65537, 10**6, (1 << 20) + 5)},
    "theorem-n10^6": lambda: theorem_params(10**6).a,
    "theorem-n65537": lambda: theorem_params(65537).a,
    "remark3-n10^6": lambda: remark3_params(10**6, 32.0).a,
    "remark3-n33000": lambda: remark3_params(33000, 4.0).a,
    "ones-n10^6": lambda: np.ones(10**6),
    "ones-n5": lambda: np.ones(5),
    # run boundaries inside pieces, and runs spanning several pieces
    "runs-4": lambda: _runs(10**6, [100_003, 333_333, 700_001], [0.25, 1.0, 0.6, 0.01]),
    "runs-short": lambda: _runs(70_000, [1, 32_770, 32_771], [0.9, 0.4, 1e-160, 0.4]),
    "same-value-two-lengths": _same_value_pieces_of_two_lengths,
    "random-n10^6": lambda: np.random.default_rng(7).uniform(1e-6, 1.0, 10**6),
    "random-n40000": lambda: np.random.default_rng(8).uniform(0.5, 1.0, 40_000),
    "tiny-n70000": lambda: np.full(70_000, 1e-160),
    "tiny-and-ones": lambda: _runs(50_000, [20_000], [1e-160, 1.0]),
}


class TestNormalizedClosedFormBlocks:
    """normalized_closed_form against the whole-array reference, by bytes."""

    @pytest.mark.parametrize("name", NORMALIZED_WEIGHTS)
    def test_bit_identical_to_whole_array(self, name):
        params = ParamSeq(NORMALIZED_WEIGHTS[name]())
        ncf = normalized_closed_form(params)
        got = np.array([ncf.influence, ncf.entropy, ncf.entropy_lower_bound])
        want = np.array(orc.whole_array_normalized_closed_form(params.a))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["const-n1000000", "same-value-two-lengths", "runs-short"])
    def test_terms_once_for_equal_weights_else_per_weight(self, monkeypatch, name):
        # equal weights are stored as one value and compute their terms
        # once; dense weights compute them on every weight of every piece,
        # whole pieces of equal weights included
        calls = []
        real = construct._log2_one_plus
        monkeypatch.setattr(
            construct, "_log2_one_plus", lambda a2, out=None: calls.append(a2.size) or real(a2, out)
        )
        a = NORMALIZED_WEIGHTS[name]()
        params = ParamSeq(a)
        if a.min() == a.max():
            assert params.a.strides == (0,)
            want = [1]
        else:
            want = [hi - lo for lo, hi in _pieces(a.size)]
            assert any(a[lo:hi].min() == a[lo:hi].max() for lo, hi in _pieces(a.size))
        for fn in (normalized_closed_form, closed_form):
            calls.clear()
            rep = fn(params)
            # past the float range closed_form takes the entropy in a
            # second, log2-domain pass, which walks the pieces alike
            passes = 2 if fn is closed_form and rep.log2_l2_sq >= 1024 else 1
            assert calls == passes * want, fn

    @pytest.mark.parametrize("n", [1, 129, 10**6, 10**12])
    def test_constant_sequence_computes_its_terms_once(self, monkeypatch, n):
        calls = []
        real = construct._log2_one_plus
        monkeypatch.setattr(
            construct, "_log2_one_plus", lambda a2, out=None: calls.append(a2.size) or real(a2, out)
        )
        params = remark3_params(n, 4.0) if n > 4 else theorem_params(n)
        for fn in (normalized_closed_form, closed_form):
            calls.clear()
            fn(params)
            assert calls == [1], fn

    @pytest.mark.parametrize("name", NORMALIZED_WEIGHTS)
    def test_closed_form_whole_array_fields_keep_their_bits(self, name):
        a = NORMALIZED_WEIGHTS[name]()
        rep = closed_form(ParamSeq(a))
        assert rep.coeff_log_magnitude.tobytes() == (2.0 * np.log2(a)).tobytes()
        assert not rep.coeff_log_magnitude.flags.writeable
        total = float(np.sum(np.log1p(a * a) / math.log(2.0)))
        k = float(np.sum(a * a))
        assert rep.log2_l2_sq == total
        assert rep.l2_norm == construct._or_inf(pow, 2.0, 0.5 * total)
        assert rep.total_mass == k
        assert rep.remark1_bound == k * construct._or_inf(math.exp, k)

    def test_working_memory_stays_under_two_mib(self):
        params = theorem_params(10**6)
        random_params = ParamSeq(np.random.default_rng(9).uniform(0.1, 1.0, 10**6))
        for p in (params, random_params):
            tracemalloc.start()
            try:
                normalized_closed_form(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 << 20, peak


class TestOneWeightReducer:
    """The scale factors and total_mass walk the weights like the closed forms."""

    @pytest.mark.parametrize("name", NORMALIZED_WEIGHTS)
    def test_one_sums_keep_whole_array_bits(self, name):
        params = ParamSeq(NORMALIZED_WEIGHTS[name]())
        a = params.a
        total = float(np.sum(np.log1p(a * a) / math.log(2.0)))
        assert construct._log2_l2_sq(params) == total
        assert construct._l2_scale_factor(params) == 2.0 ** (-0.5 * total)
        assert construct._unit_modulus_factor(params) == 2.0 ** (-0.5 * (1.0 + total))
        assert params.total_mass == float(np.sum(a * a))

    @pytest.mark.parametrize("params", [theorem_params(10**6), theorem_params(10**12),
                                        ParamSeq(np.full(10**6, 10**-3))],
                             ids=["constant-10^6", "constant-10^12", "dense-equal-10^6"])
    def test_scale_factor_computes_each_run_once(self, monkeypatch, params):
        # the constant layout is one run; each equal-valued dense piece is one
        calls = []
        real = construct._log2_one_plus
        monkeypatch.setattr(
            construct, "_log2_one_plus", lambda a2, out=None: calls.append(a2.size) or real(a2, out)
        )
        construct._unit_modulus_factor(params)
        runs = 1 if params.a.strides == (0,) else len(_pieces(params.n))
        assert calls == [1] * runs

    def test_no_weight_sized_temporary(self):
        # the whole-array sums peaked at 7.63 MiB here: one n-sized a * a
        for params in (theorem_params(10**6),
                       ParamSeq(np.random.default_rng(9).uniform(0.1, 1.0, 10**6))):
            for fn in (construct._unit_modulus_factor, lambda p: p.total_mass):
                tracemalloc.start()
                try:
                    fn(params)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 1 << 20, peak

    @pytest.mark.parametrize("block", [1 << 7, 1 << 8])
    def test_sums_over_more_weights_than_a_small_block_keep_their_bits(self, monkeypatch, block):
        # one block size, spectrum's, sizes the scratch and splits the pieces:
        # construct kept a copy of its own, and with that copy at 4 the closed
        # form of nine weights raised a broadcast error.  The pieces follow
        # np.sum's split, which stays exact down to its 2^7-entry leaf
        assert "_BLOCK" not in vars(construct) and "_BLOCK" not in vars(cs_verify)
        params = ParamSeq(np.linspace(0.1, 0.9, 300))
        figures = [normalized_closed_form, construct._unit_modulus_factor, lambda p: p.total_mass]
        want = [repr(f(params)) for f in figures]
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        assert [repr(f(params)) for f in figures] == want

    @pytest.mark.parametrize("block", [4, 64])
    def test_blocks_below_the_pairwise_leaf_are_refused(self, monkeypatch, block):
        # a block of 4 recursed without end on nine weights; one of 16..64
        # split pieces that np.sum adds whole: at 64 both figures of these
        # 380 weights came back with other bits
        rng = np.random.default_rng(11)
        draws = [np.linspace(0.1, 0.9, 9), rng.uniform(0.05, 1.0, int(rng.integers(130, 2000)))]
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        for a in draws:
            for figure in (normalized_closed_form, lambda p: p.total_mass):
                with pytest.raises(ValueError, match="np.sum's pairwise leaf"):
                    figure(ParamSeq(a))

    def test_a_block_of_the_pairwise_leaf_keeps_the_bits(self, monkeypatch):
        rng = np.random.default_rng(130)
        draws = [ParamSeq(rng.uniform(0.05, 1.0, int(rng.integers(130, 2000)))) for _ in range(20)]
        figures = [normalized_closed_form, lambda p: p.total_mass]
        want = [repr(f(params)) for params in draws for f in figures]
        monkeypatch.setattr(spectrum, "_BLOCK", 1 << 7)
        assert [repr(f(params)) for params in draws for f in figures] == want

    def test_empty_sequence(self):
        params = ParamSeq([])
        assert construct._log2_l2_sq(params) == 0.0 and params.total_mass == 0.0
        assert normalized_real(params).values.tolist() == [1.0]
        assert unimodular_complex(params).values.tolist() == [2.0**-0.5 * (1 + 1j)]


def _constant_figures(params):
    """Every closed-form and evaluator output of the weights, as exact text."""
    cf, ncf = closed_form(params), normalized_closed_form(params)
    floats = [getattr(cf, f.name) for f in dataclasses.fields(cf) if f.name not in
              ("n", "coeff_log_magnitude")]
    floats += dataclasses.astuple(ncf)
    floats += [params.total_mass, construct._l2_scale_factor(params),
               construct._unit_modulus_factor(params)]
    point = random.Random(params.n).getrandbits(params.n)
    # float.hex is exact, and reads an overflowed point's nan of either sign as "nan"
    return ([float(x).hex() for x in floats], cf.coeff_log_magnitude.tobytes(),
            [float(x[0]).hex() for x in evaluate_many(params, [point])])


def _whole_array_figures(v, n):
    """_constant_figures of n weights v, by whole-array numpy on np.full(n, v)."""
    a = np.full(n, v)
    cf = orc.whole_array_closed_form(a)
    total = cf["log2_l2_sq"]
    floats = [value for name, value in cf.items() if name != "coeff_log_magnitude"]
    floats += orc.whole_array_normalized_closed_form(a)
    floats += [cf["total_mass"], 2.0 ** (-0.5 * total), 2.0 ** (-0.5 * (1.0 + total))]
    point = random.Random(n).getrandbits(n)
    return ([float(x).hex() for x in floats], cf["coeff_log_magnitude"].tobytes(),
            [x.hex() for x in orc.point_values([v] * n, point)])


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


class TestConstantStorage:
    """Equal weights are one value broadcast to n, with the bits of whole arrays."""

    @pytest.mark.parametrize("params", [
        theorem_params(1), theorem_params(10**6), remark3_params(10**6, 4.0),
        ParamSeq(np.broadcast_to(0.5, 3)),
    ], ids=["theorem-1", "theorem-10^6", "remark3-10^6", "broadcast-3"])
    def test_constant_sequences_have_zero_stride(self, params):
        assert params.a.strides == (0,) and params.a.dtype == np.float64
        assert not params.a.flags.writeable
        owner = params.a
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == 8

    @pytest.mark.parametrize("weights", [
        np.full(5, 0.5), [0.5] * 5, np.full((2, 3), 0.5), np.broadcast_to(np.float32(0.5), 5),
        [0.3], np.full(10**6, 0.001),
    ], ids=["full", "list", "2-d", "float32", "n1", "full-10^6"])
    def test_equal_weights_hold_one_value(self, weights):
        a = ParamSeq(weights).a
        flat = np.asarray(weights, dtype=np.float64).reshape(-1)
        assert a.shape == flat.shape and a.strides == (0,) and not a.flags.writeable
        assert _owner(a).nbytes == 8 and a[0] == flat[0]

    @pytest.mark.parametrize("weights", [np.arange(1, 6) / 5, [], np.zeros((2, 0))],
                             ids=["distinct", "empty", "empty-2-d"])
    def test_other_inputs_are_copied(self, weights):
        a = ParamSeq(weights).a
        assert a.flags.c_contiguous and a.flags.owndata and not a.flags.writeable
        assert a.tolist() == np.asarray(weights, dtype=np.float64).reshape(-1).tolist()

    @pytest.mark.parametrize("n", [1, 2, 32767, 32768, 32769, 65537, 10**6])
    @pytest.mark.parametrize("weight", ["1.0", "1/sqrt(n)", "0.5", "1e-170"])
    def test_same_bits_as_dense_weights(self, n, weight):
        v = 1.0 / math.sqrt(n) if weight == "1/sqrt(n)" else float(weight)
        constant = theorem_params(n) if weight == "1/sqrt(n)" else ParamSeq(np.broadcast_to(v, n))
        assert constant.a.strides == (0,)
        assert _constant_figures(constant) == _whole_array_figures(v, n)

    @pytest.mark.parametrize("n", [2, 32767, 32768, 32769, 65537, 10**6])
    def test_remark3_certificate_text_as_with_whole_array_sums(self, monkeypatch, n):
        a = 1.5 if n == 2 else 4.0
        text = cs_verify.certify_remark3(n, a).to_text()
        calls = []

        def whole_array(params):
            calls.append(params.n)
            return construct.NormalizedClosedForm(
                *orc.whole_array_normalized_closed_form(np.full(params.n, params.a[0])))

        monkeypatch.setattr(cs_verify, "normalized_closed_form", whole_array)
        assert cs_verify.certify_remark3(n, a).to_text() == text
        assert calls == [n]

    def test_constant_weights_allocate_nothing_n_sized(self):
        # np.full weights read 15.3 MiB for this pair: the array, its copy
        # and the dense min/max
        tracemalloc.start()
        try:
            params = remark3_params(10**6, 4.0)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            normalized_closed_form(params)
            closed_form_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak < 4 << 10, build_peak
        assert closed_form_peak < 1 << 20, closed_form_peak


def _traced(fn):
    """fn() and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHugeConstantSequences:
    """Constant sequences cost O(log n) time and O(1) memory at any n."""

    N, SCALE = 10**12, 4.0

    def want(self):
        return orc.decimal_constant_figures(remark3_params(self.N, self.SCALE).a[0], self.N)

    def test_normalized_closed_form(self):
        params = remark3_params(self.N, self.SCALE)
        ncf, peak = _traced(lambda: normalized_closed_form(params))
        assert peak < 1 << 20, peak
        want = self.want()
        for field, key in (("influence", "influence"), ("entropy", "entropy"),
                           ("entropy_lower_bound", "bound")):
            assert math.isclose(getattr(ncf, field), want[key], rel_tol=1e-12), field

    def test_total_mass(self):
        params = remark3_params(self.N, self.SCALE)
        mass, peak = _traced(lambda: params.total_mass)
        assert peak < 1 << 20, peak
        assert math.isclose(mass, self.want()["total_mass"], rel_tol=1e-12)

    def test_remark3_certificate(self):
        cert, peak = _traced(lambda: cs_verify.certify_remark3(self.N, self.SCALE))
        assert peak < 1 << 20, peak
        assert cert.overall and len(cert.checks) == 3
        want = self.want()
        for check in cert.checks:
            key = "influence" if "influence" in check.name else "entropy"
            assert math.isclose(check.lhs, want[key], rel_tol=1e-12), check.name

    def test_closed_form_coefficients_are_one_value(self):
        params = remark3_params(10**9, self.SCALE)
        rep = closed_form(params)
        log2_a2 = rep.coeff_log_magnitude
        assert log2_a2.shape == (10**9,) and log2_a2.strides == (0,)
        assert log2_a2.dtype == np.float64 and not log2_a2.flags.writeable
        owner = log2_a2
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == 8
        assert log2_a2[0].tobytes() == (2.0 * np.log2(params.a[:1])).tobytes()
        want = orc.decimal_constant_figures(params.a[0], params.n)
        assert math.isclose(rep.influence, want["raw_influence"], rel_tol=1e-12)
        assert math.isclose(rep.entropy, want["raw_entropy"], rel_tol=1e-12)


class TestMostWeights:
    """One value broadcasts to at most 2^60 - 1 float64 weights; past that, ParameterError."""

    MOST = 2**60 - 1

    @pytest.mark.parametrize("build", [theorem_params, lambda n: remark3_params(n, 4.0)],
                             ids=["theorem", "remark3"])
    def test_limit(self, build):
        params = build(self.MOST)
        assert params.n == self.MOST and _owner(params.a).nbytes == 8
        with pytest.raises(ParameterError, match=f"must be <= {self.MOST} .* got {self.MOST + 1}"):
            build(self.MOST + 1)

    def test_classical_certificate(self):
        with pytest.raises(ParameterError, match=f"must be <= {self.MOST} "):
            cs_verify.certify_classical_rs(self.MOST + 1)
        with pytest.raises(ResourceLimitError):
            cs_verify.certify_classical_rs(self.MOST)


class TestClosedFormSaturation:
    """Linear-scale fields past the float range read inf instead of raising."""

    @pytest.mark.parametrize("weights, l2_finite", [
        (np.random.default_rng(0).uniform(1e-6, 1.0, 10**5), False),   # sum log2(1+a^2) >= 2048
        (np.random.default_rng(0).uniform(0.001, 0.05, 10**6), True),  # K = sum a^2 > 709.8
    ], ids=["l2-overflow", "exp-overflow"])
    def test_saturates_to_inf(self, weights, l2_finite):
        params = ParamSeq(weights)
        with np.errstate(over="ignore"):
            rep = closed_form(params)
        total = float(np.sum(np.log1p(params.a * params.a) / math.log(2.0)))
        assert rep.log2_l2_sq == total and math.isfinite(total)
        assert rep.remark1_bound == math.inf
        if l2_finite:
            assert rep.l2_norm == rep.linf_lower == 2.0 ** (0.5 * total) < math.inf
        else:
            assert rep.l2_norm == rep.linf_lower == rep.linf_upper == math.inf

    def test_float_range_edge(self):
        # log2(1 + 1) is exactly 1, so ||P||_2 = 2^(n/2) exactly; the
        # influence and entropy sums pass the float range well before this
        with np.errstate(over="ignore", invalid="ignore"):
            below = closed_form(ParamSeq([1.0] * 2047))
            at = closed_form(ParamSeq([1.0] * 2048))
        assert below.l2_norm == 2.0 ** 1023.5 and below.log2_l2_sq == 2047.0
        assert below.linf_upper == math.inf       # sqrt(2) * 2^1023.5 rounds past the range
        assert at.l2_norm == at.linf_lower == at.remark1_bound == math.inf
        assert at.log2_l2_sq == 2048.0

    def test_entropy_of_unit_weights_past_the_range_is_zero(self):
        # prod_{j != i}(1 + a_j^2) = 2^2047 overflows, and inf * log2(1)
        # would read nan; every a_i = 1 term is exactly 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2048, 2049, 5000):
                rep = closed_form(ParamSeq([1.0] * n))
                assert rep.entropy == 0.0, n
                assert rep.influence == math.inf

    @pytest.mark.parametrize("weights", [
        [1.0] * 2047 + [0.5],
        [0.5] + [1.0] * 3000,
        [1.0] * 1500 + [0.9] * 1500,
    ], ids=["last-below-one", "first-below-one", "halves"])
    def test_mixed_weights_past_the_range_saturate(self, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = closed_form(ParamSeq(weights))
        assert rep.entropy == math.inf
        assert rep.influence == math.inf

    def test_underflowing_weight_against_an_overflowing_product(self):
        # a_1^2 underflows to 0 while prod_{j != 1}(1 + a_j^2) = 2^2048
        # overflows; in log2 domain the first term is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = closed_form(ParamSeq([1e-170] + [1.0] * 2048))
        log2_a2 = 2.0 * math.log2(1e-170)
        assert rep.influence == math.inf
        assert math.isclose(math.log2(rep.entropy), 2048 + log2_a2 + math.log2(-log2_a2), rel_tol=1e-14)

    @pytest.mark.parametrize("weights, rel_tol", [
        ([1e-170] + [1.0] * 1000, 1e-13),
        ([1.0] * 500 + [1e-170] * 3 + [0.5] * 500, 1e-13),
        ([5e-324] + [0.7] * 3, 1e-15),
        ([1e-160] + [1.0] * 10, 1e-6),      # the true entropy, 1.1e-314, is subnormal
    ], ids=["tiny-against-ones", "tiny-inside", "smallest-subnormal", "subnormal-entropy"])
    def test_underflowing_weight_against_a_finite_product(self, weights, rel_tol):
        # a_i^2 underflows while L = prod(1 + a_j^2) is finite: the linear
        # route read entropy -0.0 for the first case (true value 1.2e-36)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = closed_form(ParamSeq(weights))
        want_i, want_h = orc.decimal_closed_form(weights)
        assert math.isclose(rep.influence, want_i, rel_tol=rel_tol)
        assert abs(rep.entropy - want_h) <= rel_tol * want_h

    def test_log2_domain_below_normal_squares_only(self, monkeypatch):
        # a_i >= 2^-511 keeps every a_i^2 normal and the linear route
        def refuse(*args):
            raise AssertionError("log2-domain pass")

        monkeypatch.setattr(construct, "_log2_domain_entropy", refuse)
        closed_form(ParamSeq([2.0**-511, 0.5]))
        with pytest.raises(AssertionError):
            closed_form(ParamSeq([np.nextafter(2.0**-511, 0.0), 0.5]))

    def test_in_range_unit_weights_keep_their_bits(self):
        for n in (1, 10, 700):
            got = closed_form(ParamSeq([1.0] * n)).entropy
            want = _reference_closed_form(np.ones(n))[0]["entropy"]
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


class TestClosedForm:
    def test_matches_reference_on_random_sequences(self):
        for _ in range(25):
            n = int(RNG.integers(1, 9))
            params = ParamSeq(RNG.uniform(0.05, 1.0, n))
            rep = closed_form(params)
            l2, linf, infl, ent = brute(params)
            assert abs(rep.l2_norm - l2) <= 1e-12 * l2
            assert rep.linf_lower * (1 - 1e-12) <= linf <= rep.linf_upper * (1 + 1e-12)
            assert abs(rep.influence - infl) <= 1e-12 * infl
            assert abs(rep.entropy - ent) <= 1e-11 * max(1.0, abs(ent))

    def test_coefficient_log_magnitudes(self):
        params = ParamSeq(RNG.uniform(0.1, 1.0, 6))
        rep = closed_form(params)
        coeffs = walsh_transform(build_pq(params).p).coeffs
        for mask in range(64):
            want = sum(rep.coeff_log_magnitude[i] for i in range(6) if mask >> i & 1)
            got = 2.0 * math.log2(abs(coeffs[mask]))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_influence_stays_under_exponential_bound(self):
        for _ in range(20):
            params = ParamSeq(RNG.uniform(0.05, 1.0, int(RNG.integers(1, 14))))
            rep = closed_form(params)
            k = params.total_mass
            assert rep.remark1_bound == k * math.exp(k)
            assert rep.influence < rep.remark1_bound

    def test_unit_weights_limit(self):
        # log2(1) = 0 empties the entropy sum; influence is n * 2^(n-1)
        for n in (1, 4, 7):
            rep = closed_form(ParamSeq([1.0] * n))
            assert rep.entropy == 0.0
            assert rep.influence == n * 2.0 ** (n - 1)

    def test_empty_sequence(self):
        rep = closed_form(ParamSeq([]))
        assert (rep.l2_norm, rep.influence, rep.entropy) == (1.0, 0.0, 0.0)

    def test_huge_n_runs_fast_without_tables(self):
        rep = closed_form(remark3_params(2**20, 32.0))
        assert rep.influence > 0.0 and math.isfinite(rep.entropy)


class TestNormalizedClosedForm:
    def test_frozen_quarter_weights(self):
        ncf = normalized_closed_form(ParamSeq([0.5] * 4))
        assert abs(ncf.influence - 0.8) <= 1e-12
        assert abs(ncf.entropy - 2.8877123795494493) <= 1e-12
        assert abs(ncf.entropy_lower_bound - 1.6) <= 1e-12
        assert ncf.entropy > ncf.entropy_lower_bound

    def test_matches_brute_on_normalized_table(self):
        for _ in range(15):
            n = int(RNG.integers(1, 9))
            params = ParamSeq(RNG.uniform(0.05, 1.0, n))
            ncf = normalized_closed_form(params)
            vals = normalized_real(params).values
            co = orc.transform(list(vals))
            assert abs(orc.influence(co) - ncf.influence) <= 1e-11 * max(1.0, ncf.influence)
            assert abs(orc.entropy(co) - ncf.entropy) <= 1e-11 * max(1.0, ncf.entropy)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 10**3, 10**5, 10**6])
    def test_theorem_weights_hit_exact_targets(self, n):
        # a_i^2 = 1/n: influence n/(n+1), and entropy minus the bound
        # (n/(n+1)) log2 n is n log2(1 + 1/n), taken through log1p
        ncf = normalized_closed_form(theorem_params(n))
        target = n / (n + 1)
        assert abs(ncf.influence - target) <= 1e-15 * target
        gap = ncf.entropy - target * math.log2(n)
        assert abs(gap - n * math.log1p(1 / n) / math.log(2)) <= 1e-14 * ncf.entropy

    def test_unit_weights_give_half_n_and_n(self):
        for n in (2, 8, 12):
            ncf = normalized_closed_form(ParamSeq([1.0] * n))
            assert ncf.influence == n / 2.0
            assert ncf.entropy == float(n)


class TestParamFamilies:
    def test_theorem_params_values(self):
        assert theorem_params(1).a.tolist() == [1.0]
        assert theorem_params(4).a.tolist() == [0.5, 0.5, 0.5, 0.5]
        nine = theorem_params(9)
        assert np.allclose(nine.a, 1.0 / 3.0, rtol=0, atol=0)
        assert abs(normalized_closed_form(nine).influence - 0.9) <= 1e-12

    def test_theorem_params_normalized_summary(self):
        for n in (2, 5, 16):
            ncf = normalized_closed_form(theorem_params(n))
            assert abs(ncf.influence - n / (n + 1.0)) <= 1e-12
            want_h = (n / (n + 1.0)) * math.log2(n) + n * math.log2(1.0 + 1.0 / n)
            assert abs(ncf.entropy - want_h) <= 1e-12 * max(1.0, want_h)

    def test_scaled_family_values_and_bracket(self):
        params = remark3_params(16, 4.0)
        assert params.a.tolist() == [0.5] * 16
        ncf = normalized_closed_form(params)
        assert abs(ncf.influence - 3.2) <= 1e-12
        assert 2.0 < ncf.influence < 4.0

    def test_scaled_family_mid_case(self):
        ncf = normalized_closed_form(remark3_params(4, 2.0))
        assert abs(ncf.influence - 4.0 / 3.0) <= 1e-12

    def test_scaled_family_large(self):
        ncf = normalized_closed_form(remark3_params(256, 16.0))
        assert 8.0 < ncf.influence < 16.0
        assert ncf.entropy > 8.0 * (8.0 - 4.0)

    def test_scaled_family_open_interval(self):
        for bad in (1.0, 4.0, 0.5, 5.0, 0.0, -2.0):
            with pytest.raises(ParameterError):
                remark3_params(4, bad)

    def test_weight_range_validation(self):
        with pytest.raises(ParameterError):
            ParamSeq([0.5, 1.5])
        with pytest.raises(ParameterError):
            ParamSeq([0.0])
        with pytest.raises(ParameterError):
            ParamSeq([float("nan")])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_message(self, bad):
        with pytest.raises(ParameterError) as exc:
            ParamSeq([0.5, bad, 0.25])
        assert str(exc.value) == "weights must be finite"

    @pytest.mark.parametrize("bad, shown", [
        (0.0, "0.0"), (-0.5, "-0.5"), (1.0000000000000002, "1.0000000000000002")])
    def test_out_of_range_weight_message(self, bad, shown):
        # the offending weight is quoted as a plain float, the same text
        # under every numpy version
        with pytest.raises(ParameterError) as exc:
            ParamSeq([0.5, bad, 0.25, 2.0])
        assert str(exc.value) == f"weights must lie in (0, 1], got {shown}"

    CONSTANT_MESSAGES = [
        (math.nan, "weights must be finite"),
        (math.inf, "weights must be finite"),
        (-math.inf, "weights must be finite"),
        (0.0, "weights must lie in (0, 1], got 0.0"),
        (-0.5, "weights must lie in (0, 1], got -0.5"),
        (1.0000000000000002, "weights must lie in (0, 1], got 1.0000000000000002"),
    ]

    @pytest.mark.parametrize("bad, message", CONSTANT_MESSAGES)
    @pytest.mark.parametrize("n", [1, 3, 10**6])
    def test_constant_weight_messages(self, bad, message, n):
        # the constant layout is checked on its one value, with the messages
        # of the copied layout
        for weights in (np.broadcast_to(bad, n), np.full(n, bad)):
            with pytest.raises(ParameterError) as exc:
                ParamSeq(weights)
            assert str(exc.value) == message

    @pytest.mark.parametrize("bad, message", [
        *CONSTANT_MESSAGES, (5.0, "weights must lie in (0, 1], got 5.0")])
    @pytest.mark.parametrize("n", [0, 1, 10**12])
    def test_constant_value_checked_at_every_n(self, bad, message, n):
        # n = 0 included: no weight is stored, but the value is still refused
        with pytest.raises(ParameterError) as exc:
            construct._constant_weights(bad, n)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [1.0, 0.5])
    def test_valid_constant_at_n_zero_is_empty(self, value):
        params = construct._constant_weights(value, 0)
        assert params.n == 0 and params.a.dtype == np.float64

    def test_classical_certificate_at_n_zero(self):
        cert = cs_verify.certify_classical_rs(0)
        assert cert.overall and cert.n == 0

    @pytest.mark.parametrize("weights", [[math.nan, 2.0], [2.0, math.nan], [0.0, math.inf]])
    def test_non_finite_reported_before_range(self, weights):
        with pytest.raises(ParameterError) as exc:
            ParamSeq(weights)
        assert str(exc.value) == "weights must be finite"

    def test_validated_weights_are_a_frozen_copy(self):
        source = np.array([0.5, 1.0, 5e-324])
        params = ParamSeq(source)
        assert params.a.tobytes() == source.tobytes()
        assert not np.shares_memory(params.a, source)
        assert not params.a.flags.writeable
        assert ParamSeq([]).n == 0
        # a constant input keeps its layout but not the caller's memory
        value = np.array(0.5)
        params = ParamSeq(np.broadcast_to(value, 7))
        assert params.a.strides == (0,) and not params.a.flags.writeable
        assert not np.shares_memory(params.a, value)
        value[...] = 0.25
        assert params.a.tolist() == [0.5] * 7

    def test_subset_products_hand_case(self):
        got = subset_products([2.0, 3.0, 5.0])
        assert got.tolist() == [1.0, 2.0, 3.0, 6.0, 5.0, 10.0, 15.0, 30.0]


def _concatenating_subset_products(factors, dtype=np.float64):
    """The doubling by concatenation: the reference the in-place builder matches."""
    t = np.ones(1, dtype=dtype)
    for f in factors:
        t = np.concatenate([t, t * dtype(f)])
    return t


class TestSubsetProducts:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 16])
    def test_float64_same_bytes_as_concatenation(self, n):
        factors = np.random.default_rng(n).uniform(0.01, 3.0, n)
        got = subset_products(factors)
        assert got.dtype == np.float64
        assert got.tobytes() == _concatenating_subset_products(factors).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 3, 11, 14])
    def test_longdouble_same_values_as_concatenation(self, n):
        # longdouble padding bytes are undefined: compare values
        a = np.random.default_rng(100 + n).uniform(0.05, 1.0, n).astype(np.longdouble)
        a2 = a * a
        got = subset_products(a2, dtype=np.longdouble)
        want = _concatenating_subset_products(a2, dtype=np.longdouble)
        assert got.dtype == np.longdouble
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_rows_of_factors_give_a_table_per_row(self, dtype):
        factors = np.random.default_rng(7).uniform(0.01, 3.0, (4, 6)).astype(dtype)
        got = subset_products(factors, dtype=dtype)
        assert got.shape == (4, 64)
        for row, table in zip(factors, got):
            assert np.array_equal(table, _concatenating_subset_products(row, dtype=dtype))

    def test_list_of_factors_and_zero_factor(self):
        got = subset_products([0.5, 0.0, -2.0])
        want = _concatenating_subset_products([0.5, 0.0, -2.0])
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got).tolist() == np.signbit(want).tolist()


class TestBuildersCopyOnce:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 10, 11, 12, 16, 17])
    def test_unimodular_blocks_match_whole_table_expression(self, n):
        # all-ones weights make exact zeros in P and Q, so this pins the
        # signed zeros of (p + 1j*q) * c as well
        for params in (ParamSeq(np.ones(n)), ParamSeq(np.random.default_rng(n).uniform(0.05, 1.0, n))):
            pair = build_pq(params)
            want = (pair.p.values + 1j * pair.q.values) * construct._unit_modulus_factor(params)
            assert unimodular_complex(params).values.tobytes() == want.tobytes()

    def test_real_builders_match_whole_table_expression(self):
        for n in (1, 5, 11, 16):
            params = ParamSeq(np.random.default_rng(n).uniform(0.05, 1.0, n))
            want = build_pq(params).p.values * construct._l2_scale_factor(params)
            assert normalized_real(params).values.tobytes() == want.tobytes()
            for clamp, normalize in ((0.7, True), (2.0, False), (100.0, True)):
                pc = popcounts(n).astype(np.float64)
                raw = np.clip((n - 2.0 * pc) / math.sqrt(n), -clamp, clamp)
                if normalize:
                    raw = raw / clamped_sum_l2_norm(n, clamp)
                got = neeman_function(n, clamp, normalize)
                assert got.values.tobytes() == raw.tobytes()

    def test_built_tables_are_frozen_in_their_dtype(self):
        params = theorem_params(6)
        pair = build_pq(params)
        real = (normalized_real(params), pair.p, pair.q, neeman_function(6),
                neeman_function(6, 0.5, normalize=False), normalized_sum(6))
        complex_ = (unimodular_complex(params),)
        for dtype, tables in ((np.float64, real), (np.complex128, complex_)):
            for f in tables:
                assert f.values.dtype == dtype and f.is_real == (dtype == np.float64)
                assert not f.values.flags.writeable and f.values.flags.c_contiguous


class TestNormalizedBuilders:
    def test_real_builder_unit_norm_and_bounded(self):
        for n in range(1, 9):
            f = normalized_real(theorem_params(n))
            vals = list(f.values)
            assert abs(orc.l2(vals) - 1.0) <= 1e-12
            assert orc.linf(vals) <= math.sqrt(2.0) + 1e-12

    def test_complex_builder_lands_on_unit_circle(self):
        for n in range(1, 9):
            f = unimodular_complex(ParamSeq(RNG.uniform(0.05, 1.0, n)))
            assert np.max(np.abs(np.abs(f.values) - 1.0)) <= 1e-12

    def test_real_and_complex_share_weight_distribution(self):
        params = theorem_params(6)
        a = stats(normalized_real(params))
        b = stats(unimodular_complex(params))
        assert abs(a.influence - b.influence) <= 1e-12
        assert abs(a.entropy - b.entropy) <= 1e-12

    @pytest.mark.parametrize("n", range(13))
    def test_sign_and_swap_variants_share_the_coefficient_magnitudes(self, n):
        # with g = (P + iQ) / sqrt(2L), the variants P - iQ, Q + iP and
        # Q - iP are sqrt(2L) times conj(g), i conj(g) and -i g; each has
        # |coefficient at A| = prod_{i in A} a_i / sqrt(L); unit weights
        # put exact zeros in P and Q
        for a in (RNG.uniform(0.05, 1.0, n), theorem_params(max(n, 1)).a[:n], np.ones(n)):
            params = ParamSeq(a)
            g = unimodular_complex(params)
            sqrt_l = math.sqrt(np.prod(1.0 + a * a))
            pair = build_pq(params)
            p, q = pair.p.values, pair.q.values
            variants = {
                "P + iQ": (g, p + 1j * q),
                "P - iQ": (conjugate(g), p - 1j * q),
                "Q + iP": (scale(conjugate(g), 1j), q + 1j * p),
                "Q - iP": (scale(g, -1j), q - 1j * p),
            }
            want = [math.prod(a[i] for i in range(n) if m >> i & 1) / sqrt_l for m in range(1 << n)]
            for name, (v, raw) in variants.items():
                assert np.max(np.abs(v.values * math.sqrt(2.0) * sqrt_l - raw)) <= 1e-13 * sqrt_l, name
                assert np.max(np.abs(np.abs(walsh_transform(v).coeffs) - want)) <= 1e-15, name


class TestSumFamilies:
    def test_normalized_sum_single_coordinate(self):
        f = normalized_sum(1)
        assert f.values.tolist() == [1.0, -1.0]

    def test_normalized_sum_stats(self):
        st4 = stats(normalized_sum(4))
        assert abs(st4.influence - 1.0) <= 1e-12
        assert abs(st4.entropy - 2.0) <= 1e-12
        st16 = stats(normalized_sum(16))
        assert abs(st16.influence - 1.0) <= 1e-12
        assert abs(st16.entropy - 4.0) <= 1e-12

    def test_clamped_raw_hand_values(self):
        f = neeman_function(2, 1.0, normalize=False)
        assert f.values.tolist() == [1.0, 0.0, 0.0, -1.0]

    def test_clamped_normalized_small_case(self):
        st_ = stats(neeman_function(2, 1.0, normalize=True))
        assert abs(st_.l2_norm - 1.0) <= 1e-12
        assert abs(st_.influence - 1.0) <= 1e-12
        assert abs(st_.entropy - 1.0) <= 1e-12

    def test_inactive_clamp_matches_plain_sum(self):
        a = neeman_function(16, 10.0, normalize=True)
        b = normalized_sum(16)
        assert np.array_equal(a.values, b.values)
        a2 = neeman_function(16, 10.0, normalize=False)
        assert np.array_equal(a2.values, b.values)

    def test_l2_normalizer_matches_enumeration(self):
        for n in range(1, 9):
            for c in (0.5, 1.0, 2.0, 3.9):
                want = orc.l2(orc.clamped_sum(n, c))
                got = clamped_sum_l2_norm(n, c)
                assert abs(got - want) <= 1e-13 * want

    def test_normalized_sum_is_the_unclamped_raw_sum(self):
        for n in range(1, 13):
            pc = popcounts(n).astype(np.float64)
            want = (n - 2.0 * pc) / math.sqrt(n)
            assert normalized_sum(n).values.tobytes() == want.tobytes()

    def test_l2_normalizer_matches_float_binomial_formula(self):
        # the formula the normalizer used before it kept C(n, k) exact;
        # it overflows from n = 1024 but agrees bit for bit below that
        def float_binomial(n, clamp):
            inv_s = 1.0 / math.sqrt(n)
            terms = []
            for k in range(n + 1):
                v = max(-clamp, min(clamp, (n - 2 * k) * inv_s))
                terms.append(math.comb(n, k) * (v * v))
            return math.sqrt(math.ldexp(math.fsum(terms), -n))

        for n in list(range(1, 41)) + [64, 65, 127, 200, 300]:
            for c in (0.5, 1.0, 2.0, 3.7, 10.0, 1e9):
                assert clamped_sum_l2_norm(n, c) == float_binomial(n, c)

    @pytest.mark.parametrize("n", [1024, 2000, 10**4])
    def test_l2_normalizer_finite_at_large_n(self, n):
        # sqrt(E[min(Z^2, 4)]) for a standard normal Z, the n -> inf limit
        c = 2.0
        inside = math.erf(c / math.sqrt(2.0))
        limit = math.sqrt(inside - 2.0 * c * math.exp(-c * c / 2.0) / math.sqrt(2.0 * math.pi)
                          + c * c * (1.0 - inside))
        assert abs(limit - 0.9594461557) <= 1e-10
        got = clamped_sum_l2_norm(n, c)
        assert math.isfinite(got) and abs(got - limit) <= 5e-4
        assert clamped_sum_l2_norm(n, 10.0) == 1.0

    @pytest.mark.parametrize("fn", [neeman_function, clamped_sum_l2_norm])
    @pytest.mark.parametrize("bad", [0.0, 0, -1.0, math.nan, -math.inf, "2", None, 1j])
    def test_one_clamp_check(self, fn, bad):
        with pytest.raises(ParameterError, match="clamp threshold must be"):
            fn(4, bad)

    @pytest.mark.parametrize("clamp", [2, np.float64(2.0), np.int64(2), math.inf,
                                       pytest.param(10**400, id="10**400")])
    def test_clamp_takes_any_positive_number(self, clamp):
        ref = 2.0 if clamp == 2 else math.inf
        assert clamped_sum_l2_norm(4, clamp) == clamped_sum_l2_norm(4, ref)
        assert neeman_function(4, clamp).values.tobytes() == neeman_function(4, ref).values.tobytes()

    def test_clamp_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ParameterError):
                neeman_function(4, bad)
        with pytest.raises(ParameterError):
            clamped_sum_l2_norm(4, 0.0)


@given(weight_lists)
@settings(max_examples=50, deadline=None)
def test_closed_form_influence_entropy_property(a):
    params = ParamSeq(a)
    rep = closed_form(params)
    _, _, infl, ent = brute(params)
    assert abs(rep.influence - infl) <= 1e-10 * max(1.0, infl)
    assert abs(rep.entropy - ent) <= 1e-10 * max(1.0, abs(ent))


@given(weight_lists)
@settings(max_examples=50, deadline=None)
def test_constancy_property(a):
    pair = build_pq(ParamSeq(a))
    squares = pair.p.values**2 + pair.q.values**2
    target = 2.0 * float(np.prod(1.0 + np.asarray(a) ** 2))
    assert np.max(np.abs(squares - target)) <= 1e-12 * target
