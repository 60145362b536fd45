"""Fixed-point scalar and vector arithmetic."""
import math
import re
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedchain import numerics
from fedchain.errors import DimMismatch, EmptyInput, ParseError
from fedchain.numerics import (
    ACC_LIMIT,
    Fixed,
    GradientVector,
    RAW_LIMIT,
    SCALE,
    div_toward_zero,
    dot,
    norm_sq,
    sample_weighted_mean,
)
from fedchain.scenario import parse_config, run_scenario


def vec(*values: str) -> GradientVector:
    return GradientVector.from_decimals(values)


class TestFixedParsing:
    def test_scale_definition(self):
        assert Fixed.from_decimal("1.5").raw == 1_500_000_000

    def test_zero(self):
        assert Fixed.from_decimal("0").raw == 0

    def test_one_ulp(self):
        assert Fixed.from_decimal("-0.000000001").raw == -1

    @pytest.mark.parametrize("text", ["", "abc", "1.2.3", "1e5", "--4", "1.", "+ 1"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            Fixed.from_decimal(text)

    def test_too_many_fraction_digits(self):
        with pytest.raises(ParseError):
            Fixed.from_decimal("0.0000000001")

    def test_magnitude_overflow(self):
        with pytest.raises(OverflowError):
            Fixed.from_decimal(str(2**127))

    @given(st.integers(min_value=-(10**18), max_value=10**18))
    def test_round_trip(self, raw):
        f = Fixed(raw)
        assert Fixed.from_decimal(f.to_decimal()) == f

    def test_from_float_half_to_even(self):
        assert Fixed.from_float(0.0000000005).raw in (0, 1)  # ties resolve to even
        assert Fixed.from_float(1.5).raw == 1_500_000_000
        assert Fixed.from_float(-2.25).raw == -2_250_000_000


class TestFixedArithmetic:
    def test_add_exact(self):
        a, b = Fixed.from_decimal("1.25"), Fixed.from_decimal("-0.75")
        assert (a + b).to_decimal() == "0.5"

    def test_mul_truncates_toward_zero(self):
        assert (Fixed(1) * Fixed(1)).raw == 0          # 1e-18 -> 0
        assert (Fixed(-3) * Fixed(SCALE // 2)).raw == -1  # -1.5 ulp -> -1

    def test_mul_div_one_rounding(self):
        assert Fixed.from_decimal("0.25").mul_div(1, 4).to_decimal() == "0.0625"
        assert Fixed(10).mul_div(-1, 3).raw == -3  # trunc toward zero

    def test_overflow_raises(self):
        big = Fixed(RAW_LIMIT - 1)
        with pytest.raises(OverflowError):
            big + Fixed(1)

    def test_div_toward_zero(self):
        assert div_toward_zero(7, 2) == 3
        assert div_toward_zero(-7, 2) == -3
        assert div_toward_zero(7, -2) == -3
        assert div_toward_zero(-7, -2) == 3
        with pytest.raises(ZeroDivisionError):
            div_toward_zero(1, 0)


class TestDot:
    def test_orthogonal(self):
        assert dot(vec("1", "0"), vec("0", "1")).raw == 0

    def test_unit_self_dot(self):
        assert dot(vec("1", "0"), vec("1", "0")).to_decimal() == "1"

    def test_direct_arithmetic(self):
        assert dot(vec("1.5", "2.0"), vec("2.0", "0.5")).to_decimal() == "4"

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            dot(vec("1"), vec("1", "2"))

    def test_accumulator_overflow(self):
        huge = GradientVector((RAW_LIMIT - 1,) * 4)
        with pytest.raises(OverflowError):
            dot(huge, huge)

    @given(
        st.lists(st.integers(min_value=-(10**12), max_value=10**12), min_size=1, max_size=16),
        st.data(),
    )
    def test_commutative(self, raws, data):
        other = data.draw(
            st.lists(
                st.integers(min_value=-(10**12), max_value=10**12),
                min_size=len(raws), max_size=len(raws),
            )
        )
        a, b = GradientVector.from_raw(raws), GradientVector.from_raw(other)
        assert dot(a, b) == dot(b, a)

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-2 * SCALE, 2 * SCALE), min_size=n, max_size=n),
                st.lists(st.integers(-2 * SCALE, 2 * SCALE), min_size=n, max_size=n),
            )
        )
    )
    def test_against_float_oracle(self, pair):
        raws_a, raws_b = pair
        a, b = GradientVector.from_raw(raws_a), GradientVector.from_raw(raws_b)
        oracle = sum((x / SCALE) * (y / SCALE) for x, y in zip(raws_a, raws_b))
        assert abs(dot(a, b).raw / SCALE - oracle) <= 2 * a.dim / SCALE


class TestWeightedSum:
    """sample_weighted_mean as the one weighted sum: integer sample counts as
    weights, one terminal truncation per component."""

    def test_identity(self):
        v = vec("0.5", "-2", "3.25")
        assert sample_weighted_mean([v], [1]) == v

    def test_symmetry_cancels(self):
        v = vec("1.5", "-0.25")
        out = sample_weighted_mean([v, v.negate()], [2, 2])
        assert out.raw.tolist() == [0, 0]

    def test_weighted_mean_arithmetic(self):
        out = sample_weighted_mean([vec("2", "-1"), vec("-2", "3")], [3, 1])
        assert out == vec("1", "0")

    def test_mixed_dims(self):
        with pytest.raises(DimMismatch):
            sample_weighted_mean([vec("1", "2"), vec("1")], [1, 1])

    @given(
        st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=8),
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=5),
    )
    def test_unit_weights_reproduce_vector(self, raws, counts):
        # the weights n_i / N sum to exactly 1, so a stack of one vector reproduces it
        v = GradientVector.from_raw(raws)
        assert sample_weighted_mean([v] * len(counts), counts) == v


class TestSampleWeightedMean:
    def test_single_vector_identity(self):
        v = vec("0.1", "2.5")
        assert sample_weighted_mean([v], [17]) == v

    def test_weighted_mean(self):
        out = sample_weighted_mean([vec("1", "0"), vec("0", "1")], [1, 3])
        assert out == vec("0.25", "0.75")

    def test_equal_counts_cancel(self):
        v = vec("3", "-1")
        out = sample_weighted_mean([v, v.negate()], [5, 5])
        assert out.raw.tolist() == [0, 0]

    @settings(max_examples=60)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda k: st.tuples(
                st.lists(
                    st.lists(st.integers(-2 * SCALE, 2 * SCALE), min_size=3, max_size=3),
                    min_size=k, max_size=k,
                ),
                st.lists(st.integers(1, 50), min_size=k, max_size=k),
            )
        )
    )
    def test_against_float_oracle(self, instance):
        raws, counts = instance
        vectors = [GradientVector.from_raw(r) for r in raws]
        out = sample_weighted_mean(vectors, counts)
        total = sum(counts)
        for j in range(3):
            oracle = sum(n * (r[j] / SCALE) for n, r in zip(counts, raws)) / total
            assert abs(out.raw.tolist()[j] / SCALE - oracle) <= 2 * 3 / SCALE


class TestVectorBasics:
    def test_norm_sq(self):
        assert norm_sq(vec("3", "4")).to_decimal() == "25"

    def test_encode_decode_round_trip(self):
        # each component as signed 128-bit big-endian, nothing else
        v = vec("1.5", "-0.000000001", "0")
        data = v.encode()
        assert data == b"".join(raw.to_bytes(16, "big", signed=True) for raw in v.raw.tolist())
        decoded = [int.from_bytes(data[i : i + 16], "big", signed=True) for i in range(0, 48, 16)]
        assert GradientVector.from_raw(decoded) == v

    def test_scale_and_negate(self):
        v = vec("1", "2")
        assert v.negate().raw.tolist() == [-SCALE, -2 * SCALE]
        assert v.scale_int(100).raw.tolist() == [100 * SCALE, 200 * SCALE]

    def test_add_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            vec("1", "2") + vec("1")


# --- raw-int vectors against the per-component formulation ------------------

QUANT_LIMIT = RAW_LIMIT / SCALE  # floats beyond this quantize out of range

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    # (2k+1) / 1024 times 10^9 is exactly half an odd integer: a half-way tie
    st.integers(-(2**40), 2**40).map(lambda k: (2 * k + 1) / 1024),
    st.floats(0.5 * QUANT_LIMIT, 2 * QUANT_LIMIT).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    # scaled values on both sides of 2**62 and 2**63
    st.sampled_from([2.0**62, 2.0**63, 2.0**63 - 1024, 2.0**64]).map(lambda x: x / SCALE),
    st.floats(2.0**61 / SCALE, 2.0**64 / SCALE).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(-1e-300, 1e-300),  # subnormals and the smallest normals
)
INT64_MIN = -(2**63)
# both sides of every int64 lane bound: the int64 range (INT64_MIN has no
# positive int64), 2**62 (where two magnitudes sum to 2**63), and 2**53,
# past which a float64 skips ints
LANE_EDGES = [
    2**62 - 1, 2**62, 2**63 - 1, 2**63,
    -(2**62 - 1), -(2**62), INT64_MIN + 1, INT64_MIN,
    2**53 - 1, 2**53, 2**53 + 1, -(2**53 + 1),
]
SQRT_LANE = math.isqrt(2**63)  # SQRT_LANE**2 < 2**63 < (SQRT_LANE + 1)**2
INT64S = st.one_of(
    st.integers(INT64_MIN, 2**63 - 1),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, 2**63 - 1, 0, 2**21, -(2**21), 2**42]),
    # magnitudes whose products land on either side of 2**63
    st.integers(SQRT_LANE - 3, SQRT_LANE + 3).flatmap(lambda m: st.sampled_from([m, -m])),
    st.integers(1, 62).flatmap(lambda e: st.integers(-(2**e), 2**e)),
)
RAWS = st.one_of(
    st.integers(-(RAW_LIMIT - 1), RAW_LIMIT - 1),
    st.integers(-(10**12), 10**12),
    st.integers(RAW_LIMIT - 2**124, RAW_LIMIT - 1).flatmap(lambda r: st.sampled_from([r, -r])),
    st.sampled_from(LANE_EDGES).flatmap(lambda e: st.integers(e - 3, e + 3)),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**31), 2**31),
)


def outcome(compute):
    """The value computed, or the type of the exception it raised."""
    try:
        return compute()
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return type(err)


def checked_raw(raw: int) -> int:
    if not -RAW_LIMIT < raw < RAW_LIMIT:
        raise OverflowError(raw)
    return raw


def checked_acc(acc: int) -> int:
    if not -ACC_LIMIT < acc < ACC_LIMIT:
        raise OverflowError(acc)
    return acc


def mean_oracle(raws: list[list[int]], counts: list[int]) -> list[int]:
    """The per-component FedAvg: partial sums bounded, one truncation each."""
    out = []
    for k in range(len(raws[0])):
        acc = 0
        for n, vector in zip(counts, raws):
            acc = checked_acc(acc + n * vector[k])
        out.append(checked_raw(div_toward_zero(acc, sum(counts))))
    return out


def dot_oracle(a: list[int], b: list[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc = checked_acc(acc + x * y)
    return checked_raw(div_toward_zero(acc, SCALE))


class TestRawVectors:
    def test_components_are_raw_ints(self):
        vectors = [
            vec("1.5", "-2"),
            GradientVector.from_floats([0.5, -0.25]),
            GradientVector.from_raw([3, -4]),
            GradientVector.zeros(2),
            vec("1", "2").negate(),
            vec("1", "2").scale_int(3),
            sample_weighted_mean([vec("1", "2"), vec("3", "-1")], [1, 2]),
        ]
        for v in vectors:
            assert v.raw.dtype == np.int64

    def test_raw_is_read_only(self):
        for v in (GradientVector.from_raw([1, 2]), GradientVector.from_raw([2**63, 1])):
            with pytest.raises(ValueError):
                v.raw[0] = 5
        lane = np.array([1, 2], dtype=np.int64)
        v = GradientVector(lane)
        lane[0] = 7  # the vector holds its own copy
        assert v.raw.tolist() == [1, 2]

    def test_a_result_that_fits_int64_is_int64(self):
        beyond = GradientVector.from_raw([2**63])
        assert beyond.raw.dtype == object
        out = beyond + GradientVector.from_raw([-1])
        assert out.raw.dtype == np.int64 and out.raw.tolist() == [2**63 - 1]
        assert beyond.scale_int(0).raw.dtype == np.int64
        assert dot(beyond, GradientVector.zeros(1)).raw == 0  # products bounded by 0
        joined = numerics.concatenate([beyond, GradientVector.from_raw([1])])
        assert joined.raw.dtype == object and joined.raw.tolist() == [2**63, 1]

    def test_equality_follows_the_components(self):
        a, b = GradientVector.from_raw([1, 2**63]), GradientVector.from_raw([1, 2**63])
        assert a == b
        assert GradientVector.from_raw([1, 2]) == GradientVector.from_floats(np.array([1e-9, 2e-9]))
        assert GradientVector.from_raw([1, 2]) != GradientVector.from_raw([1, 3])
        assert GradientVector.from_raw([1, 2]) != GradientVector.from_raw([1, 2, 0])
        assert GradientVector.from_raw([1]) != (1,)

    def test_range_checked_on_construction(self):
        with pytest.raises(OverflowError):
            GradientVector((0, RAW_LIMIT))
        with pytest.raises(OverflowError):
            GradientVector.from_raw([-RAW_LIMIT, 0])
        with pytest.raises(OverflowError):
            vec("1").scale_int(RAW_LIMIT)
        with pytest.raises(EmptyInput):
            GradientVector(())

    @pytest.mark.parametrize("make", [GradientVector, GradientVector.from_raw])
    @pytest.mark.parametrize("values, bad", [
        ((1.5, 2), "1.5"),
        ((1, True), "True"),
        ((1, "3"), "'3'"),
        ((2**70, None), "None"),  # a vector beyond int64 is type-checked too
    ])
    def test_a_component_that_is_not_an_int_raises_value_error(self, make, values, bad):
        with pytest.raises(ValueError, match=f"^raw component {re.escape(bad)} is not an int$"):
            make(values)

    @pytest.mark.parametrize("make", [GradientVector, GradientVector.from_raw])
    def test_ints_beyond_int64_take_the_range_check(self, make):
        beyond = make((2**63, -(2**100)))
        assert beyond.raw.tolist() == [2**63, -(2**100)] and beyond.raw.dtype == object
        assert all(type(c) is int for c in beyond.raw)
        with pytest.raises(OverflowError, match="128-bit magnitude"):
            make((2**63, RAW_LIMIT))
        with pytest.raises(OverflowError):
            make((RAW_LIMIT, 1.5))  # the first bad component decides the error

    @pytest.mark.parametrize("make, values, error", [
        (GradientVector.from_raw, [2**200, "x"], OverflowError),
        (GradientVector.from_raw, ["x", 2**200], ValueError),
        (GradientVector.from_raw, [2**200, None], OverflowError),
        (GradientVector.from_decimals, [str(2**127), "abc"], OverflowError),
        (GradientVector.from_decimals, ["abc", str(2**127)], ParseError),
    ])
    def test_first_bad_component_decides_the_error(self, make, values, error):
        with pytest.raises(error):
            make(values)

    @given(st.lists(FLOATS, min_size=1, max_size=12))
    @example([1e30, math.nan])
    @example([math.nan, 1e30])
    @example([math.inf, math.nan])
    @example([-0.0, 0.0])
    @example([2.5e-9, -2.5e-9, 1 / 1024, 3 / 1024])
    def test_from_floats_matches_fixed_from_float(self, xs):
        expected = outcome(lambda: [Fixed.from_float(x).raw for x in xs])
        actual = outcome(lambda: GradientVector.from_floats(xs).raw.tolist())
        assert actual == expected

    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.integers(1, 6).flatmap(
                lambda dim: st.tuples(
                    st.lists(st.lists(RAWS, min_size=dim, max_size=dim), min_size=k, max_size=k),
                    st.lists(st.one_of(st.integers(1, 50), st.integers(2**127, 2**130),
                                       st.sampled_from([2**31, 2**62])),
                             min_size=k, max_size=k),
                )
            )
        )
    )
    @example(([[RAW_LIMIT - 1]], [2**129]))  # one weighted term beyond the accumulator
    # a first weighted term beyond the accumulator that the second cancels
    @example(([[RAW_LIMIT - 1], [1 - RAW_LIMIT]], [2**129, 2**129]))
    @example(([[2**62 - 1]], [2]))  # n * |raw| just below 2**63: the int64 lane
    @example(([[2**62]], [2]))  # n * |raw| == 2**63: Python ints
    @example(([[INT64_MIN]], [1]))  # |INT64_MIN| is 2**63
    @example(([[2**61, 1], [-(2**61), 3]], [2, 2]))  # sum(n_i * max|raw_i|) == 2**63
    @example(([[0], [0]], [2**62, 2**62]))  # sum(n_i) == 2**63
    @example(([[-7], [2]], [3, 1]))  # a negative mean truncates toward zero
    def test_sample_weighted_mean_matches_per_component_oracle(self, instance):
        raws, counts = instance
        expected = outcome(lambda: mean_oracle(raws, counts))
        actual = outcome(lambda: sample_weighted_mean(
            [GradientVector.from_raw(r) for r in raws], counts
        ).raw.tolist())
        assert actual == expected

    @given(
        st.integers(1, 8).flatmap(
            lambda dim: st.tuples(
                st.lists(RAWS, min_size=dim, max_size=dim),
                st.lists(RAWS, min_size=dim, max_size=dim),
            )
        )
    )
    # only a partial sum leaves the accumulator range; the full sum is 0
    @example(([RAW_LIMIT - 1] * 6, [RAW_LIMIT - 1] * 3 + [1 - RAW_LIMIT] * 3))
    # products of 2**62 on the int64 lane: partial sums 2**62, 2**63, 3 * 2**62
    @example(([2**31] * 4, [2**31] * 4))
    @example(([2**32, 2**32, -(2**32)], [2**30] * 3))  # up to 2**63, back to 2**62
    @example(([2**32], [2**31]))  # one product of exactly 2**63: Python ints
    @example(([INT64_MIN, 5], [0, 0]))  # every product 0
    @example(([INT64_MIN], [1]))
    @example(([2**62, -(2**62)], [2**62 - 1, 2**62 - 1]))
    def test_dot_matches_per_component_oracle(self, pair):
        a, b = pair
        expected = outcome(lambda: dot_oracle(a, b))
        actual = outcome(lambda: dot(GradientVector.from_raw(a), GradientVector.from_raw(b)).raw)
        assert actual == expected


# --- int64 arrays against the scalar reference -------------------------------


class TestLanes:
    """Every lane operation is bit-identical to the per-component reference,
    including the errors, on both sides of its bound."""

    @given(st.lists(FLOATS, min_size=1, max_size=12))
    @example([0.5 / SCALE, 1.5 / SCALE, 2.5 / SCALE, -2.5 / SCALE])  # ties, to even
    @example([1 / 1024, 3 / 1024, -5 / 1024])  # scaled exactly half an odd integer
    @example([5e-324, -5e-324, 2.2250738585072014e-308])  # subnormals
    @example([2.0**62 / SCALE, -(2.0**62) / SCALE])
    @example([(2.0**63 - 1024) / SCALE])  # the largest scaled float below 2**63: the lane
    @example([2.0**63 / SCALE])  # scaled to exactly 2**63: per component
    @example([1.0, math.nan])
    @example([math.inf, 1.0])
    @example([-math.inf, math.nan])
    @example([1e300, math.nan])  # the scaled 1e300 overflows before the NaN
    def test_from_floats_array_matches_fixed_from_float(self, xs):
        expected = outcome(lambda: [Fixed.from_float(x).raw for x in xs])
        actual = outcome(lambda: GradientVector.from_floats(np.array(xs)).raw.tolist())
        assert actual == expected

    # failing as Fixed.from_float fails on the first bad value, never coerced
    # to a float (numpy would read "1.5" as 1.5)
    @pytest.mark.parametrize("values, error", [
        (["1.5"], TypeError),
        ([None], TypeError),
        ([1.5, "1.5"], TypeError),
        ([None, 1e30], TypeError),
        ([1e30, None], OverflowError),
        (np.array(["1.5"]), TypeError),
        (np.array([1.5, None]), TypeError),
    ], ids=["str", "none", "float_then_str", "none_first", "out_of_range_first", "str_array",
            "object_array"])
    def test_from_floats_rejects_non_numbers_as_the_scalar_path(self, values, error):
        assert outcome(lambda: [Fixed.from_float(x).raw for x in list(values)]) == error
        assert outcome(lambda: GradientVector.from_floats(values)) == error

    @given(
        st.integers(1, 8).flatmap(
            lambda dim: st.tuples(
                st.lists(INT64S, min_size=dim, max_size=dim),
                st.lists(INT64S, min_size=dim, max_size=dim),
            )
        )
    )
    @example(([SQRT_LANE] * 3, [-SQRT_LANE] * 3))  # max|a| * max|b| just below 2**63: one limb
    @example(([SQRT_LANE + 1] * 3, [SQRT_LANE + 1, -(SQRT_LANE + 1), 1]))  # just past it
    @example(([INT64_MIN] * 2, [INT64_MIN, 2**63 - 1]))
    @example(([2**63 - 1, -(2**63 - 1)], [2**63 - 1, 2**63 - 1]))
    @example(([INT64_MIN, -1, 2**42, -(2**21)], [2**21 - 1, INT64_MIN, -(2**42), 2**21]))
    def test_int64_dot_matches_raw_dot(self, pair):
        # on each side of max|a| * max|b| = 2**63, where the int64 dot takes limbs
        va, vb = (GradientVector.from_raw(raws) for raws in pair)
        assert va.raw.dtype == vb.raw.dtype == np.int64
        expected = numerics.raw_dot(*(np.array(raws, dtype=object) for raws in pair))
        assert dot(va, vb).raw == expected

    @given(st.lists(RAWS, min_size=1, max_size=8))
    @example([2**62 - 1, -(2**62 - 1)])
    @example([2**62, -(2**62)])
    @example([INT64_MIN, 2**63 - 1])
    @example([INT64_MIN])
    @example([2**63])
    @example([-1, 0, 1])
    def test_encode_matches_per_component_bytes(self, raws):
        expected = b"".join(raw.to_bytes(16, "big", signed=True) for raw in raws)
        assert GradientVector.from_raw(raws).encode() == expected

    @given(st.lists(RAWS, min_size=1, max_size=8))
    @example([2**53 - 1, -(2**53 - 1)])
    @example([2**53, -(2**53)])
    @example([2**53 + 1])  # not a float64: divided as a Python int
    @example([2**53 + 3])  # rounding to a float64 first would round the quotient twice, wrongly
    @example([-(2**53 + 1), 1])
    @example([INT64_MIN, 2**63])
    def test_to_floats_matches_per_component_division(self, raws):
        assert GradientVector.from_raw(raws).to_floats().tolist() == [raw / SCALE for raw in raws]

    @given(
        st.integers(1, 6).flatmap(
            lambda dim: st.tuples(
                st.lists(RAWS, min_size=dim, max_size=dim),
                st.lists(RAWS, min_size=dim, max_size=dim),
                st.sampled_from([0, 1, -1, 2, 2**31, -(2**62), 2**63, 2**200]),
            )
        )
    )
    @example(([2**62], [2**62], 2))  # the sum is 2**63
    @example(([INT64_MIN], [0], -1))  # negating INT64_MIN leaves int64
    @example(([2**62 - 1], [-(2**62 - 1)], -2))
    @example(([0, 0], [1, 2], 2**200))  # a zero vector times a factor beyond int64
    def test_add_negate_scale_match_per_component(self, triple):
        a, b, factor = triple
        u, v = GradientVector.from_raw(a), GradientVector.from_raw(b)
        assert outcome(lambda: (u + v).raw.tolist()) == outcome(
            lambda: list(map(checked_raw, map(add, a, b))))
        assert outcome(lambda: u.negate().raw.tolist()) == [-x for x in a]
        assert outcome(lambda: u.scale_int(factor).raw.tolist()) == outcome(
            lambda: [checked_raw(x * factor) for x in a])
        for compute in (lambda: u + v, u.negate, lambda: u.scale_int(factor)):
            w = outcome(compute)
            if isinstance(w, GradientVector):  # int64 exactly when every component fits
                fits = all(INT64_MIN <= x < 2**63 for x in w.raw.tolist())
                assert (w.raw.dtype == np.int64) == fits

    def test_lanes_keep_every_component_a_raw_int(self):
        v = GradientVector.from_floats(np.array([0.5, -0.25]))
        for w in (v, v + v, v.negate(), v.scale_int(3), sample_weighted_mean([v, v], [1, 2])):
            assert w.raw.dtype == np.int64
            assert all(type(c) is int for c in w.raw.tolist())


class TestPythonIntPath:
    """Each lane operation falls back to Python ints only beyond its int64
    bound, and there it is the per-component arithmetic of before."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts calls of the Python-int steps ``numerics`` looks up by name."""
        counted = {}
        for name in ("_quantize", "add_terms", "raw_dot"):
            original = getattr(numerics, name)

            def counting(*args, _name=name, _original=original):
                counted[_name] = counted.get(_name, 0) + 1
                return _original(*args)

            monkeypatch.setattr(numerics, name, counting)
        return counted

    def test_quantize(self, calls):
        GradientVector.from_floats(np.array([(2.0**63 - 1024) / SCALE, -1.5]))
        assert calls == {}
        big = GradientVector.from_floats(np.array([2.0**63 / SCALE, -1.5]))
        assert calls == {"_quantize": 2} and big.raw.tolist() == [2**63, -1_500_000_000]

    def test_encode(self):
        assert GradientVector.from_raw([2**63 - 1, INT64_MIN]).raw.dtype == np.int64
        beyond = GradientVector.from_raw([2**63, 1])
        assert beyond.raw.dtype == object
        assert beyond.encode() == (2**63).to_bytes(16, "big", signed=True) + (1).to_bytes(16, "big")

    def test_fedavg(self, calls):
        sample_weighted_mean([GradientVector.from_raw([2**62 - 1, 1])], [2])
        assert calls == {}
        out = sample_weighted_mean([GradientVector.from_raw([2**62, 1])], [2])
        assert calls == {"add_terms": 1} and out.raw.tolist() == [2**62, 1]

    @pytest.fixture
    def lane_results(self, monkeypatch):
        """The int64 arrays that vectors are built from: the results of
        expressions that ran in int64."""
        built = []
        raw_array = numerics._raw_array

        def recording(values):
            if isinstance(values, np.ndarray) and values.dtype == np.int64:
                built.append(values)
            return raw_array(values)

        monkeypatch.setattr(numerics, "_raw_array", recording)
        return built

    def test_negate(self, lane_results):
        assert GradientVector.from_raw([2**63 - 1, -(2**63 - 1)]).negate().raw.tolist() == [
            -(2**63 - 1), 2**63 - 1]
        assert len(lane_results) == 1
        beyond = GradientVector.from_raw([INT64_MIN, 5]).negate()  # -INT64_MIN is 2**63
        assert len(lane_results) == 1
        assert beyond.raw.tolist() == [2**63, -5] and beyond.raw.dtype == object

    @pytest.mark.parametrize("raws, factor, on_lane", [
        ([2**62 - 1, -3], 2, True),  # peak * c == 2**63 - 2
        ([2**62, -3], 2, False),  # peak * c == 2**63
        ([-(2**62), 1], -2, False),
        ([2**63 - 1, 0], 1, True),
        ([1, 0], INT64_MIN, False),  # peak * |c| == 2**63
        ([0, 0], 2**63, False),  # the factor itself is beyond int64
    ])
    def test_scale_int(self, lane_results, raws, factor, on_lane):
        scaled = GradientVector.from_raw(raws).scale_int(factor)
        assert scaled.raw.tolist() == [raw * factor for raw in raws]
        assert len(lane_results) == on_lane

    def test_dot(self, calls):
        a = GradientVector.from_raw([2**31] * 4)
        assert dot(a, a).raw == 2**64 // SCALE  # partial sums past 2**63, on the lane
        b = GradientVector.from_raw([2**32] * 4)
        assert dot(b, b).raw == 2**66 // SCALE  # products past 2**63: int64 limbs
        assert calls == {}
        c = GradientVector.from_raw([2**63] * 4)  # beyond int64
        assert dot(c, c).raw == 2**128 // SCALE
        assert calls == {"raw_dot": 1}

    def test_wide_model_norm_checks_stay_in_int64(self, calls, monkeypatch):
        # a scaler (c = 100) at dim 2 000: some update's max|a| * max|a| passes 2**63
        reaches = []
        int64_dot = numerics.dot

        def recording(a, b):
            reaches.append(a._peak * b._peak)
            return int64_dot(a, b)

        monkeypatch.setattr(numerics, "dot", recording)
        run_scenario(parse_config({
            "seed": 0, "rounds": 2, "fairness_interval": 2, "tau": "100",
            "dataset": {
                "n_clients": 4, "samples_per_client": [50] * 4, "dim": 2_000, "noise": 0.1,
                "lr": 0.001, "behaviors": ["honest", "honest", "negator", {"kind": "scaler", "c": 100}],
            },
        }))
        assert max(reaches) >= 2**63
        assert "raw_dot" not in calls
