"""Transform, influence, entropy, and stats behavior against the slow reference."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from cubespec import (
    FourierSpectrum,
    HypercubeFunction,
    ParamSeq,
    ParameterError,
    ResourceLimitError,
    SpectralStats,
    build_pq,
    conjugate,
    entropy,
    influence,
    inverse_transform,
    lift_zero_mean,
    neeman_function,
    normalized_real,
    normalized_sum,
    popcounts,
    scale,
    stats,
    theorem_params,
    unimodular_complex,
    walsh_transform,
)
from cubespec import spectrum
from cubespec.spectrum import fwht_inplace

RNG = np.random.default_rng(416)


def hf(values):
    arr = np.asarray(values)
    n = arr.size.bit_length() - 1
    return HypercubeFunction(n, arr)


finite = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw, max_n=5, want_complex=False):
    n = draw(st.integers(min_value=0, max_value=max_n))
    size = 1 << n
    re = draw(st.lists(finite, min_size=size, max_size=size))
    if want_complex:
        im = draw(st.lists(finite, min_size=size, max_size=size))
        return np.array([complex(a, b) for a, b in zip(re, im)])
    return np.asarray(re, dtype=np.float64)


class TestTransformValues:
    def test_frozen_integer_table(self):
        # dyadic inputs keep the butterfly exact, so compare exactly
        s = walsh_transform(hf([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(s.coeffs, np.array([2.5, -0.5, -1.0, 0.0], dtype=complex))

    def test_constant_is_point_mass(self):
        s = walsh_transform(hf([1.0, 1.0, 1.0, 1.0]))
        assert np.array_equal(s.coeffs, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))

    def test_dictator_is_its_own_character(self):
        s = walsh_transform(hf([1.0, -1.0]))
        assert np.array_equal(s.coeffs, np.array([0.0, 1.0], dtype=complex))

    def test_frozen_complex_two_point_table(self):
        s = walsh_transform(hf([1 + 2j, 3 - 1j]))
        assert np.array_equal(s.coeffs, np.array([2 + 0.5j, -1 + 1.5j]))

    def test_classical_pair_coefficients_unimodular(self):
        p = build_pq(ParamSeq([1.0, 1.0])).p
        s = walsh_transform(p)
        assert np.array_equal(np.abs(s.coeffs), np.ones(4))

    def test_matches_reference_on_random_tables(self):
        for n in range(7):
            vals = RNG.uniform(-5, 5, 1 << n) + 1j * RNG.uniform(-5, 5, 1 << n)
            got = walsh_transform(hf(vals)).coeffs
            want = orc.transform(list(vals))
            assert np.max(np.abs(got - np.asarray(want))) <= 1e-13


def reference_fwht(table):
    """Pass-by-pass butterfly with two table-sized temporaries per pass.

    The plain form of the transform, kept as the reference the blocked
    in-place kernel has to match bit for bit.
    """
    size = table.shape[0]
    h = 1
    while h < size:
        view = table.reshape(-1, 2, h)
        top = view[:, 0, :] + view[:, 1, :]
        bottom = view[:, 0, :] - view[:, 1, :]
        view[:, 0, :] = top
        view[:, 1, :] = bottom
        h *= 2
    return table


def kernel_input(n, dtype, huge):
    """Signed zeros plus magnitudes spread over 1e-150..1e150 (or 1e300..1e307,
    which overflow to inf and nan within a few passes)."""
    rng = np.random.default_rng(9000 + n)
    lo, hi = (300, 307) if huge else (-150, 150)

    def plane():
        x = rng.standard_normal(1 << n) * 10.0 ** rng.integers(lo, hi, 1 << n)
        x[::3] = -0.0
        x[1::7] = 0.0
        return x

    if np.dtype(dtype).kind == "c":
        return (plane() + 1j * plane()).astype(dtype)
    return plane().astype(dtype)


# n = 16, 17, 20 and 21 span more than one 2^15-element block, so they
# take the per-block low passes and the block-row butterflies; n = 21 has
# 64 block-rows.
KERNEL_NS = list(range(18)) + [20, 21]


class TestKernel:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("huge", [False, True])
    def test_bit_identical_to_reference(self, dtype, huge):
        with np.errstate(over="ignore", invalid="ignore"):
            for n in KERNEL_NS:
                x = kernel_input(n, dtype, huge)
                got = fwht_inplace(x.copy())
                want = reference_fwht(x.copy())
                assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("huge", [False, True])
    def test_longdouble_matches_reference(self, huge):
        # longdouble padding bytes are undefined: compare values and signs
        with np.errstate(over="ignore", invalid="ignore"):
            for n in KERNEL_NS:
                x = kernel_input(n, np.longdouble, huge)
                if huge:
                    x *= np.longdouble(2.0) ** 15000  # exponents past float64's range
                got = fwht_inplace(x.copy())
                want = reference_fwht(x.copy())
                assert np.array_equal(got, want, equal_nan=True), n
                assert np.array_equal(np.signbit(got), np.signbit(want)), n

    def test_all_negative_zero_table(self):
        x = np.full(1 << 16, -0.0)
        assert fwht_inplace(x.copy()).tobytes() == reference_fwht(x.copy()).tobytes()

    def test_rejects_tables_it_cannot_transform_in_place(self):
        for bad in (np.ones(6), np.ones((4, 4)), np.ones(16)[::2], np.ones(0)):
            with pytest.raises(ParameterError):
                fwht_inplace(bad)


# With the block shrunk to 2^2..2^6 elements, n <= 14 spans up to 4096
# block-rows: odd and even low and high pass counts.
SMALL_BLOCKS = [1 << k for k in range(2, 7)]


class TestKernelSmallBlocks:
    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("huge", [False, True])
    def test_bit_identical_to_reference(self, monkeypatch, block, dtype, huge):
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(15):
                x = kernel_input(n, dtype, huge)
                got = fwht_inplace(x.copy())
                want = reference_fwht(x.copy())
                assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @pytest.mark.parametrize("huge", [False, True])
    def test_longdouble_matches_reference(self, monkeypatch, block, huge):
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(15):
                x = kernel_input(n, np.longdouble, huge)
                if huge:
                    x *= np.longdouble(2.0) ** 15000
                got = fwht_inplace(x.copy())
                want = reference_fwht(x.copy())
                assert np.array_equal(got, want, equal_nan=True), n
                assert np.array_equal(np.signbit(got), np.signbit(want)), n

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.longdouble])
    def test_stacked_tables_have_the_bits_of_each_alone(self, monkeypatch, block, dtype):
        # the oracle transforms a stack of half tables along the last axis
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(11):
                x = np.stack([kernel_input(n, dtype, huge) for huge in (False, True, False)])
                x[2] = x[2][::-1]
                got = spectrum._fwht(x.copy())
                for row, want in zip(got, x):
                    want = fwht_inplace(want.copy())
                    if dtype != np.longdouble:
                        assert row.tobytes() == want.tobytes(), n
                    else:  # padding bytes are undefined: by value and sign
                        assert np.array_equal(row, want, equal_nan=True), n
                        assert np.array_equal(np.signbit(row), np.signbit(want)), n

    def test_high_bits_are_butterflies_between_block_rows(self, monkeypatch):
        # at n = 12 with 2^6-element blocks there are 64 block-rows: each
        # high pass h = 1, 2, 4, ... pairs rows j and j + h once, in order
        block = 1 << 6
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        x = kernel_input(12, np.float64, False)
        got = x.copy()
        base = got.ctypes.data
        pairs = []
        real_butterfly = spectrum._butterfly

        def spy(a, b, scratch):
            assert a.size == b.size == scratch.size == block
            pairs.append(((a.ctypes.data - base) // a.nbytes, (b.ctypes.data - base) // b.nbytes))
            real_butterfly(a, b, scratch)

        monkeypatch.setattr(spectrum, "_butterfly", spy)
        assert fwht_inplace(got).tobytes() == reference_fwht(x.copy()).tobytes()
        rows = x.size // block
        assert rows == 64
        h = [1 << k for k in range(rows.bit_length() - 1)]
        assert pairs == [(j, j + hh) for hh in h for j in range(rows) if not j & hh]


def peak_bytes(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestCopies:
    @pytest.mark.parametrize("build, tables", [
        (normalized_real, 1.1), (unimodular_complex, 2.1), (build_pq, 2.05)])
    def test_builder_peak_in_float64_tables(self, build, tables):
        # at n = 20 these read 1.06, 2.06 and 2.00 tables: P, the result's
        # two planes or P and its mirror Q, plus the two block buffers of
        # the doubling step, which keeps no Q; the whole-table doubling
        # (Q and two half-table buffers) read 3.0 for the first two
        n = 20
        params = theorem_params(n)
        build(params)  # warms caches outside the traced call
        assert peak_bytes(lambda: build(params)) <= tables * (8 << n)

    def test_walsh_and_inverse_peak_below_one_point_six_tables(self):
        f = unimodular_complex(theorem_params(16))
        s = walsh_transform(f)
        assert peak_bytes(lambda: walsh_transform(f)) <= 1.6 * f.values.nbytes
        assert peak_bytes(lambda: inverse_transform(s)) <= 1.6 * s.coeffs.nbytes

    @pytest.mark.parametrize("build", [normalized_real, unimodular_complex])
    def test_results_are_frozen_and_do_not_share_memory(self, build):
        f = build(theorem_params(6))
        s = walsh_transform(f)
        back = inverse_transform(s)
        for arr in (s.coeffs, back.values):
            assert not arr.flags.writeable and arr.dtype == f.values.dtype
        assert not np.shares_memory(s.coeffs, f.values)
        assert not np.shares_memory(back.values, s.coeffs)

    def test_constructor_still_copies_caller_arrays(self):
        vals = np.arange(4, dtype=np.complex128)
        f = HypercubeFunction(2, vals)
        vals[0] = 9.0
        assert f.values[0] == 0.0 and vals.flags.writeable


class TestInverse:
    def test_point_mass_back_to_constant(self):
        f = inverse_transform(FourierSpectrum(2, np.array([1, 0, 0, 0], dtype=complex)))
        assert np.array_equal(f.values, np.ones(4, dtype=complex))

    def test_single_character(self):
        f = inverse_transform(FourierSpectrum(1, np.array([0, 1], dtype=complex)))
        assert np.array_equal(f.values, np.array([1.0, -1.0], dtype=complex))

    def test_round_trip_random_n8(self):
        vals = RNG.uniform(-3, 3, 256) + 1j * RNG.uniform(-3, 3, 256)
        f = hf(vals)
        back = inverse_transform(walsh_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12


class TestInfluenceEntropy:
    def test_parity_influence_is_dimension(self):
        for n in (1, 3, 5):
            c = np.zeros(1 << n, dtype=complex)
            c[-1] = 1.0
            assert influence(FourierSpectrum(n, c)) == float(n)

    def test_normalized_sum_influence_is_one(self):
        n = 6
        vals = np.array([(n - 2 * orc.bits(x)) / math.sqrt(n) for x in range(1 << n)])
        got = influence(walsh_transform(hf(vals)))
        assert abs(got - 1.0) <= 1e-12

    def test_frozen_influence_and_entropy(self):
        s = walsh_transform(hf([1.0, 2.0, 3.0, 4.0]))
        assert influence(s) == 1.25
        assert abs(entropy(s) - (-16.02410118609203)) <= 1e-12

    def test_point_mass_entropy_zero(self):
        c = np.zeros(8, dtype=complex)
        c[3] = 1.0
        got = entropy(FourierSpectrum(3, c))
        assert (got, math.copysign(1.0, got)) == (0.0, 1.0)  # +0.0, not -0.0

    def test_point_mass_stats_entropy_is_positive_zero(self):
        # the normalized sum at n = 1 is the character x_1: one weight 1
        got = stats(normalized_sum(1)).entropy
        assert (got, math.copysign(1.0, got)) == (0.0, 1.0)

    def test_uniform_singletons_entropy(self):
        n = 8
        c = np.zeros(1 << n, dtype=complex)
        for i in range(n):
            c[1 << i] = 1.0 / math.sqrt(n)
        assert abs(entropy(FourierSpectrum(n, c)) - math.log2(n)) <= 1e-12

    def test_entropy_cutoff_drops_tiny_weights(self):
        c = np.zeros(4, dtype=complex)
        c[1] = 1e-170  # squared weight 1e-340, below the cutoff
        assert entropy(FourierSpectrum(2, c)) == 0.0
        c2 = np.zeros(4, dtype=complex)
        c2[1] = 1e-140  # squared weight 1e-280, still counted
        assert entropy(FourierSpectrum(2, c2)) > 0.0

    def test_nan_weight_makes_entropy_nan(self):
        # the constructor refuses non-finite tables, so build one by hand
        s = object.__new__(FourierSpectrum)
        object.__setattr__(s, "n", 2)
        object.__setattr__(s, "coeffs", np.array([0.5, complex(np.nan, 0.0), 0.5, 0.5]))
        assert math.isnan(entropy(s))


class TestStats:
    def test_constant(self):
        st_ = stats(hf(np.ones(8)))
        assert (st_.l2_norm, st_.linf_norm, st_.influence, st_.entropy) == (1.0, 1.0, 0.0, 0.0)

    def test_degree_two_character(self):
        st_ = stats(hf([1.0, -1.0, -1.0, 1.0]))
        assert (st_.l2_norm, st_.influence, st_.entropy) == (1.0, 2.0, 0.0)

    def test_pair_table_at_matched_weights(self):
        r = 1.0 / math.sqrt(2.0)
        st_ = stats(build_pq(ParamSeq([r, r])).p)
        for got in (st_.l2_norm, st_.influence, st_.entropy):
            assert abs(got - 1.5) <= 1.5e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_weight_makes_entropy_nan(self):
        # the sum overflows and its scaling by 1/2 turns 2j into inf*0 + 1j = nan
        st_ = stats(hf(np.array([1e308 + 1j, 1e308 + 1j])))
        assert math.isnan(st_.total_weight)
        assert math.isnan(st_.entropy)

    def test_total_weight_is_squared_l2(self):
        vals = RNG.uniform(-2, 2, 64)
        st_ = stats(hf(vals))
        assert abs(st_.total_weight - st_.l2_norm**2) <= 1e-12 * st_.total_weight


def abs_squared(x):
    """|x|^2 in x's own dtype: x * x for a real table, re^2 + im^2 for a complex one."""
    return x * x if x.dtype.kind != "c" else x.real ** 2 + x.imag ** 2


def stats_from_transform(f):
    """The stats fields the long way: norms of f, functionals of walsh_transform(f)."""
    s = walsh_transform(f)
    return SpectralStats(
        l2_norm=math.sqrt(float(np.sum(abs_squared(f.values))) * math.ldexp(1.0, -f.n)),
        linf_norm=float(np.max(np.abs(f.values))),
        influence=influence(s),
        entropy=entropy(s),
        total_weight=float(np.sum(abs_squared(s.coeffs))),
    )


def stats_cases(n):
    params = ParamSeq(np.random.default_rng(n).uniform(0.2, 1.0, n))
    real = normalized_real(params)
    negative_zero_imag = real.values.astype(complex)
    negative_zero_imag.imag = -0.0
    one_imag = real.values.astype(complex)
    one_imag[(1 << n) // 3] += 1e-9j
    cases = {
        "real": real,
        "complex": unimodular_complex(params),
        "neeman": neeman_function(n, 2.0),
        "imag_all_negative_zero": hf(negative_zero_imag),
        "one_nonzero_imag": hf(one_imag),
    }
    assert np.signbit(cases["imag_all_negative_zero"].values.imag).all()
    return cases


class TestStatsEquivalence:
    @pytest.mark.parametrize("n", [1, 5, 12, 16, 17])
    def test_fields_equal_the_transform_route(self, n):
        for name, f in stats_cases(n).items():
            assert stats(f) == stats_from_transform(f), name

    @pytest.mark.parametrize("build", [normalized_real, unimodular_complex])
    def test_peak_allocation_is_the_copy_plus_one_mib(self, build):
        # the transform copy in f's dtype, plus the reducers' 2^15-element
        # block scratch (0.93 MiB)
        f = build(theorem_params(16))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stats(f)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= f.values.nbytes + (1 << 20)

    def test_no_table_sized_memory_held_after_return(self):
        # the popcount table of every n ever transformed used to stay
        # cached (2^n bytes each); n = 21 is transformed by no other test
        f = normalized_real(theorem_params(21))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stats(f)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < (1 << 21) // 8, held
        assert popcounts(5) is not popcounts(5)


def stats_bits(st_):
    return np.array([getattr(st_, name) for name in SpectralStats.__dataclass_fields__]).tobytes()


def functional_bits(s):
    """influence(s) and entropy(s) carry the whole-array code's bits."""
    w = abs_squared(s.coeffs)
    want = (orc.whole_array_influence_sum(w, s.n), orc.whole_array_entropy_sum(w))
    return np.array([influence(s), entropy(s)]).tobytes() == np.array(want).tobytes()


def family_tables(n):
    params = ParamSeq(np.random.default_rng(n).uniform(0.2, 1.0, n))
    tables = {"real": normalized_real(params), "complex": unimodular_complex(params)}
    if n:
        tables["neeman"] = neeman_function(n, 2.0)
    return tables


#: Tables whose blocks hold weights below ZERO_WEIGHT_CUTOFF: every odd
#: mask dead (live and dead mixed in every block), whole blocks dead
#: after a live one, and nothing live at all.
DEAD_WEIGHT_TABLES = {
    "odd_masks_dead": lambda: normalized_real(ParamSeq([1e-160] + [0.5] * 16)),
    "high_blocks_dead": lambda: unimodular_complex(ParamSeq([0.5] * 15 + [1e-160] * 2)),
    "all_dead": lambda: hf(np.zeros(1 << 16)),
}


class TestBlockwiseReducer:
    @pytest.mark.parametrize("n", list(range(19)) + [20])
    def test_stats_bits_equal_the_whole_array_code(self, n):
        for name, f in family_tables(n).items():
            assert stats_bits(stats(f)) == stats_bits(orc.whole_array_stats(f)), name

    @pytest.mark.parametrize("block", [1 << 7, 1 << 8])
    def test_stats_bits_with_small_blocks(self, monkeypatch, block):
        # many blocks at small n; 2^7 is np.sum's own leaf size, the
        # smallest block at which the emulated split stays exact
        monkeypatch.setattr(spectrum, "_BLOCK", block)
        for n in range(13):
            for name, f in family_tables(n).items():
                assert stats_bits(stats(f)) == stats_bits(orc.whole_array_stats(f)), (n, name)

    @pytest.mark.parametrize("name", list(DEAD_WEIGHT_TABLES))
    def test_bits_with_dead_weights(self, name):
        f = DEAD_WEIGHT_TABLES[name]()
        assert stats_bits(stats(f)) == stats_bits(orc.whole_array_stats(f))
        assert functional_bits(walsh_transform(f))

    @pytest.mark.parametrize("n", [0, 5, 15, 16, 17])
    def test_influence_and_entropy_bits_equal_the_whole_array_code(self, n):
        for name, f in family_tables(n).items():
            assert functional_bits(walsh_transform(f)), name

    @pytest.mark.parametrize("length", [1, 129, 32769, 10**6, (1 << 20) + 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_pairwise_split_matches_np_sum(self, length, dtype):
        x = np.random.default_rng(length).standard_normal(length).astype(dtype)
        pieces = []

        def leaf(lo, hi):
            pieces.append((lo, hi))
            return np.sum(x[lo:hi])

        got = spectrum._pairwise_sum(leaf, 0, length)
        want = np.sum(x)
        assert got.dtype == want.dtype and got == want
        # pieces cover the range in ascending order, none above the block
        assert [lo for lo, _ in pieces] == [0] + [hi for _, hi in pieces[:-1]]
        assert pieces[-1][1] == length
        assert all(hi - lo <= spectrum._BLOCK for lo, hi in pieces)

    @pytest.mark.parametrize("lengths", [range(1, 301), *(
        [(1 << k) - 1, 1 << k, (1 << k) + 1] for k in range(9, 22)), [10**6]],
        ids=["1-300", *(f"2^{k}" for k in range(9, 22)), "10^6"])
    def test_run_sum_is_np_sum_of_copies(self, lengths):
        for length in lengths:
            values = [1.0, 1.0 / math.sqrt(length), 1e-300,
                      *np.random.default_rng(length).uniform(-1.0, 1.0, 3)]
            want = np.array([np.sum(np.full(length, t)) for t in values])
            for t, w in zip(values, want):
                got = spectrum._run_sum(t, length)
                assert got.dtype == np.float64 and got.tobytes() == w.tobytes(), (length, t)
            # one run per value at once, as the weight reducer sums its rows
            assert spectrum._run_sum(np.array(values), length).tobytes() == want.tobytes(), length

    @pytest.mark.parametrize("length", [0, 1, 128, 129, 32769, 10**6, 10**12, 2**60 - 1])
    def test_run_plan_follows_the_pairwise_split(self, length):
        plan = spectrum._run_plan(length)
        lengths = [m for m, _ in plan]
        assert lengths == sorted(set(lengths)) and lengths[-1] == length
        for m, half in plan:
            if m <= spectrum._PAIRWISE_LEAF:
                assert half == 0
            else:
                assert half == spectrum._pairwise_split(m)
                assert {half, m - half} <= set(lengths[: lengths.index(m)])

    def test_run_plan_cache_stays_bounded(self):
        for length in range(1000, 1300):
            spectrum._run_plan(length)
        info = spectrum._run_plan.cache_info()
        assert info.currsize == info.maxsize < 300

    @pytest.mark.parametrize("length", [10**6, 10**12])
    def test_run_sum_bits_do_not_depend_on_the_cache(self, length):
        rows = np.random.default_rng(length).uniform(-1.0, 1.0, 5)
        runs = [1.0 / math.sqrt(length), rows]
        spectrum._run_sum(rows, length)
        hits = [spectrum._run_sum(t, length).tobytes() for t in runs]
        spectrum._run_plan.cache_clear()
        assert [spectrum._run_sum(t, length).tobytes() for t in runs] == hits
        for other in range(1000, 1300):  # evicts `length`
            spectrum._run_plan(other)
        misses = spectrum._run_plan.cache_info().misses
        assert [spectrum._run_sum(t, length).tobytes() for t in runs] == hits
        assert spectrum._run_plan.cache_info().misses == misses + 1

    def test_rows_sum_like_one_dimensional_sums(self):
        # np.add.reduce along the last axis of rows of a wider scratch,
        # as construct._weight_sums sums a piece's rows
        scratch = np.random.default_rng(5).standard_normal((5, spectrum._BLOCK))
        scratch *= [[1.0], [1e-3], [1e3], [1e-300], [7.0]]
        for length in [*range(1, 301), spectrum._BLOCK]:
            rows = scratch[:, :length]
            want = np.array([np.sum(np.ascontiguousarray(r)) for r in rows])
            assert np.add.reduce(rows, axis=-1).tobytes() == want.tobytes(), length

    @pytest.mark.parametrize("build", [normalized_real, unimodular_complex])
    def test_stats_peak_is_the_transform_copy_plus_two_mib(self, build):
        f = build(theorem_params(20))
        stats(f)  # warms the popcount table outside the traced call
        assert peak_bytes(lambda: stats(f)) <= f.values.nbytes + (2 << 20)


class TestStoredDtype:
    """A real function is stored as float64, a complex one as complex128."""

    @pytest.mark.parametrize("values, dtype", [
        ([1, 2, 3, 4], np.float64),
        (np.arange(4, dtype=np.int8), np.float64),
        (np.ones(4, dtype=np.float32), np.float64),
        ([1.0, 2.0, 3.0, 4j], np.complex128),
        (np.ones(4, dtype=np.complex64), np.complex128),
    ])
    def test_input_dtype_decides(self, values, dtype):
        f = hf(values)
        assert f.values.dtype == dtype and f.is_real == (dtype == np.float64)
        assert FourierSpectrum(2, values).coeffs.dtype == dtype

    def test_complex_table_with_zero_imaginary_parts_stays_complex(self):
        vals = np.ones(1 << 4, dtype=complex)
        vals.imag = -0.0
        assert not hf(vals).is_real and not hf(vals.real + 0j).is_real

    def test_scale_by_a_real_factor_keeps_a_real_table_real(self):
        f = normalized_real(theorem_params(5))
        # the real factor's product is the real plane of the complex route's
        for a in (2.0, -0.5, 3, complex(2.0, 0.0)):
            g = scale(f, a)
            assert g.is_real and g.values.tobytes() == (f.values * complex(a)).real.tobytes()
        g = scale(f, 1j)
        assert g.values.dtype == np.complex128
        assert g.values.tobytes() == (f.values.astype(complex) * 1j).tobytes()
        z = unimodular_complex(theorem_params(5))
        assert scale(z, 2.0).values.tobytes() == (z.values * complex(2.0)).tobytes()

    @pytest.mark.parametrize("build", [normalized_real, unimodular_complex])
    def test_conjugate_and_lift_keep_the_dtype(self, build):
        f = build(theorem_params(5))
        for g in (conjugate(f), lift_zero_mean(f)):
            assert g.values.dtype == f.values.dtype and g.is_real == f.is_real


class TestScale:
    def test_identity(self):
        f = hf([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(scale(f, 1.0).values, f.values)

    def test_zero_kills_everything(self):
        st_ = stats(scale(hf(RNG.uniform(-1, 1, 16)), 0.0))
        assert st_.influence == 0.0 and st_.entropy == 0.0

    def test_frozen_entropy_halving_case(self):
        # unit-norm table with entropy exactly 2; scaling by 1/2 lands on 1
        f = hf([2.0, 0.0, 0.0, 0.0])
        assert stats(f).entropy == 2.0
        assert abs(stats(scale(f, 0.5)).entropy - 1.0) <= 1e-12

    def test_rescaling_laws_random(self):
        for _ in range(20):
            vals = RNG.uniform(-3, 3, 32) + 1j * RNG.uniform(-3, 3, 32)
            a = complex(RNG.uniform(0.2, 2.0), RNG.uniform(-1.0, 1.0))
            base, scaled = stats(hf(vals)), stats(scale(hf(vals), a))
            m = abs(a) ** 2
            assert abs(scaled.influence - m * base.influence) <= 1e-9 * max(1.0, base.influence)
            want = m * base.entropy - m * math.log2(m) * base.total_weight
            assert abs(scaled.entropy - want) <= 1e-9 * max(1.0, abs(want))

    def test_nonfinite_factor_rejected(self):
        with pytest.raises(ParameterError):
            scale(hf([1.0, 2.0]), float("nan"))


class TestConjugate:
    def test_real_table_unchanged(self):
        f = hf(RNG.uniform(-1, 1, 16))
        assert conjugate(f).values.tobytes() == f.values.tobytes()

    def test_entropy_invariant_for_pair_combination(self):
        pair = build_pq(ParamSeq([0.6, 0.3]))
        f = hf(pair.p.values + 1j * pair.q.values)
        assert abs(stats(conjugate(f)).entropy - stats(f).entropy) <= 1e-12

    def test_coefficient_magnitudes_exactly_preserved(self):
        vals = RNG.uniform(-2, 2, 64) + 1j * RNG.uniform(-2, 2, 64)
        a = np.abs(walsh_transform(hf(vals)).coeffs)
        b = np.abs(walsh_transform(conjugate(hf(vals))).coeffs)
        assert np.array_equal(a, b)


class TestLift:
    def test_constant_becomes_fresh_coordinate(self):
        g = lift_zero_mean(hf(np.ones(4)))
        assert g.n == 3
        assert np.array_equal(g.values, np.concatenate([np.ones(4), -np.ones(4)]).astype(g.values.dtype))
        assert influence(walsh_transform(g)) == 1.0

    def test_mean_is_exactly_zero(self):
        g = lift_zero_mean(hf(RNG.uniform(-1, 1, 8)))
        assert walsh_transform(g).coeffs[0] == 0.0

    def test_preserves_norms_and_entropy_exactly(self):
        f = hf(RNG.uniform(-2, 2, 16))
        g = lift_zero_mean(f)
        sf, sg = stats(f), stats(g)
        assert sg.l2_norm == sf.l2_norm
        assert sg.linf_norm == sf.linf_norm
        assert sg.entropy == sf.entropy

    def test_influence_gains_squared_l2_mass(self):
        r = 1.0 / math.sqrt(2.0)
        f = build_pq(ParamSeq([r, r])).p  # l2 norm 3/2
        sf, sg = stats(f), stats(lift_zero_mean(f))
        assert abs(sg.influence - (sf.influence + 2.25)) <= 1e-9

    def test_cap_applies_to_lifted_dimension(self):
        with pytest.raises(ResourceLimitError):
            lift_zero_mean(hf(np.ones(8)), max_table_n=3)


class TestValidation:
    def test_table_length_must_match_dimension(self):
        with pytest.raises(ParameterError):
            HypercubeFunction(2, np.ones(3))

    def test_nonfinite_values_rejected(self):
        with pytest.raises(ParameterError):
            hf([1.0, float("inf")])

    def test_transform_respects_cap_override(self):
        with pytest.raises(ResourceLimitError):
            walsh_transform(hf(np.ones(8)), max_table_n=2)

    def test_popcounts_table(self):
        got = popcounts(10)
        want = np.array([bin(x).count("1") for x in range(1 << 10)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(21))
    def test_popcounts_equal_the_concatenating_build(self, n):
        got = popcounts(n)
        assert got.dtype == np.uint8 and not got.flags.writeable
        assert got.tobytes() == orc.concatenated_popcounts(n).tobytes()


@given(tables(want_complex=True))
@settings(max_examples=60, deadline=None)
def test_parseval_for_any_table(vals):
    st_ = stats(hf(vals))
    scale_ = max(1.0, st_.total_weight)
    assert abs(st_.total_weight - st_.l2_norm**2) <= 1e-10 * scale_


@given(tables(max_n=4, want_complex=True))
@settings(max_examples=40, deadline=None)
def test_transform_matches_reference_property(vals):
    got = walsh_transform(hf(vals)).coeffs
    want = np.asarray(orc.transform(list(vals)))
    assert np.max(np.abs(got - want)) <= 1e-12


@given(tables(max_n=5))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(vals):
    f = hf(vals)
    back = inverse_transform(walsh_transform(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-10


@given(tables(max_n=4), tables(max_n=4))
@settings(max_examples=40, deadline=None)
def test_transform_is_linear(u, v):
    if u.size != v.size:
        return
    cu = walsh_transform(hf(u)).coeffs
    cv = walsh_transform(hf(v)).coeffs
    both = walsh_transform(hf(3.0 * u - 0.5 * v)).coeffs
    assert np.max(np.abs(both - (3.0 * cu - 0.5 * cv))) <= 1e-10
