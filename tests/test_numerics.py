"""Fixed-point scalar and vector arithmetic."""
import math

import pytest
from hypothesis import example, given, settings, strategies as st

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
    def test_add_sub_neg_exact(self):
        a, b = Fixed.from_decimal("1.25"), Fixed.from_decimal("-0.75")
        assert (a + b).to_decimal() == "0.5"
        assert (a - b).to_decimal() == "2"
        assert (-b).to_decimal() == "0.75"

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
        assert abs(dot(a, b).to_float() - oracle) <= 2 * a.dim / SCALE


class TestWeightedSum:
    """sample_weighted_mean as the one weighted sum: integer sample counts as
    weights, one terminal truncation per component."""

    def test_identity(self):
        v = vec("0.5", "-2", "3.25")
        assert sample_weighted_mean([v], [1]) == v

    def test_symmetry_cancels(self):
        v = vec("1.5", "-0.25")
        out = sample_weighted_mean([v, v.negate()], [2, 2])
        assert out.components == (0, 0)

    def test_weighted_mean_arithmetic(self):
        out = sample_weighted_mean([vec("2", "-1"), vec("-2", "3")], [3, 1])
        assert out == vec("1", "0")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            sample_weighted_mean([], [])

    def test_length_mismatch(self):
        with pytest.raises(DimMismatch):
            sample_weighted_mean([vec("1")], [1, 2])

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
        assert out.components == (0, 0)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(EmptyInput):
            sample_weighted_mean([vec("1")], [0])

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
            assert abs(out.components[j] / SCALE - oracle) <= 2 * 3 / SCALE


class TestVectorBasics:
    def test_norm_sq(self):
        assert norm_sq(vec("3", "4")).to_decimal() == "25"

    def test_encode_decode_round_trip(self):
        # each component as signed 128-bit big-endian, nothing else
        v = vec("1.5", "-0.000000001", "0")
        data = v.encode()
        assert data == b"".join(raw.to_bytes(16, "big", signed=True) for raw in v.components)
        decoded = [int.from_bytes(data[i : i + 16], "big", signed=True) for i in range(0, 48, 16)]
        assert GradientVector.from_raw(decoded) == v

    def test_scale_and_negate(self):
        v = vec("1", "2")
        assert v.negate().components == (-SCALE, -2 * SCALE)
        assert v.scale_int(100).components == (100 * SCALE, 200 * SCALE)


# --- raw-int vectors against the per-component formulation ------------------

QUANT_LIMIT = RAW_LIMIT / SCALE  # floats beyond this quantize out of range

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    # (2k+1) / 1024 times 10^9 is exactly half an odd integer: a half-way tie
    st.integers(-(2**40), 2**40).map(lambda k: (2 * k + 1) / 1024),
    st.floats(0.5 * QUANT_LIMIT, 2 * QUANT_LIMIT).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)
RAWS = st.one_of(
    st.integers(-(RAW_LIMIT - 1), RAW_LIMIT - 1),
    st.integers(-(10**12), 10**12),
    st.integers(RAW_LIMIT - 2**124, RAW_LIMIT - 1).flatmap(lambda r: st.sampled_from([r, -r])),
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
            assert all(type(c) is int for c in v.components)

    def test_range_checked_on_construction(self):
        with pytest.raises(OverflowError):
            GradientVector((0, RAW_LIMIT))
        with pytest.raises(OverflowError):
            GradientVector.from_raw([-RAW_LIMIT, 0])
        with pytest.raises(OverflowError):
            vec("1").scale_int(RAW_LIMIT)
        with pytest.raises(EmptyInput):
            GradientVector(())

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
        actual = outcome(lambda: list(GradientVector.from_floats(xs).components))
        assert actual == expected

    @given(
        st.integers(1, 5).flatmap(
            lambda k: st.integers(1, 6).flatmap(
                lambda dim: st.tuples(
                    st.lists(st.lists(RAWS, min_size=dim, max_size=dim), min_size=k, max_size=k),
                    st.lists(st.one_of(st.integers(1, 50), st.integers(2**127, 2**130)),
                             min_size=k, max_size=k),
                )
            )
        )
    )
    @example(([[RAW_LIMIT - 1]], [2**129]))  # one weighted term beyond the accumulator
    def test_sample_weighted_mean_matches_per_component_oracle(self, instance):
        raws, counts = instance
        expected = outcome(lambda: mean_oracle(raws, counts))
        actual = outcome(lambda: list(sample_weighted_mean(
            [GradientVector.from_raw(r) for r in raws], counts
        ).components))
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
    def test_dot_matches_per_component_oracle(self, pair):
        a, b = pair
        expected = outcome(lambda: dot_oracle(a, b))
        actual = outcome(lambda: dot(GradientVector.from_raw(a), GradientVector.from_raw(b)).raw)
        assert actual == expected
