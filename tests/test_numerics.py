"""Fixed-point scalar and vector arithmetic."""
import pytest
from hypothesis import given, settings, strategies as st

from fedchain.errors import DimMismatch, EmptyInput, ParseError
from fedchain.numerics import (
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
        huge = GradientVector((Fixed(RAW_LIMIT - 1),) * 4)
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
        assert out.raws() == [0, 0]

    def test_weighted_mean_arithmetic(self):
        out = sample_weighted_mean([vec("2", "-1"), vec("-2", "3")], [3, 1])
        assert [c.to_decimal() for c in out.components] == ["1", "0"]

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
        assert [c.to_decimal() for c in out.components] == ["0.25", "0.75"]

    def test_equal_counts_cancel(self):
        v = vec("3", "-1")
        out = sample_weighted_mean([v, v.negate()], [5, 5])
        assert out.raws() == [0, 0]

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
            assert abs(out.components[j].to_float() - oracle) <= 2 * 3 / SCALE


class TestVectorBasics:
    def test_norm_sq(self):
        assert norm_sq(vec("3", "4")).to_decimal() == "25"

    def test_encode_decode_round_trip(self):
        v = vec("1.5", "-0.000000001", "0")
        assert GradientVector.decode(v.encode()) == v

    def test_scale_and_negate(self):
        v = vec("1", "2")
        assert v.negate().raws() == [-SCALE, -2 * SCALE]
        assert v.scale_int(100).raws() == [100 * SCALE, 200 * SCALE]
