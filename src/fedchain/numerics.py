"""Deterministic fixed-point scalars and gradient vectors.

Every quantity the simulated contract touches lives here as an integer
multiple of 10^-9 ("nano" units), mirroring integer-only contract
arithmetic: no floats ever enter contract state, every operation is
referentially transparent, and replays are bit-identical on any platform.

Rounding discipline: wide-integer accumulation, a single terminal rescale
per result, truncation toward zero (integer-division semantics). Overflow
raises instead of wrapping or saturating.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul, neg
from typing import Callable, Iterable, Optional, Sequence

from .errors import DimMismatch, EmptyInput, ParseError

SCALE = 10**9
RAW_LIMIT = 2**127          # |raw| must stay below this
ACC_LIMIT = 2**255          # wide accumulator bound for dot/weighted sums
INT_LIMIT = 2**256          # |config integer| must stay below this: the contract's uint256

_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d+)?|\.\d+)$")


def div_toward_zero(numerator: int, denominator: int) -> int:
    """Integer division that truncates toward zero (like Solidity / C)."""
    if denominator == 0:
        raise ZeroDivisionError("division by zero")
    quotient = abs(numerator) // abs(denominator)
    if (numerator < 0) != (denominator < 0):
        quotient = -quotient
    return quotient


def check_int(value, name: str, minimum: Optional[int] = None) -> None:
    """The config rule for an integer: a non-bool int below 2**256 in
    magnitude, at least ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")
    if abs(value) >= INT_LIMIT:  # before any message prints the value
        raise ValueError(f"{name} must be below 2**256 in magnitude")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_number(value, name: str) -> float:
    """The config rule for a number: a non-bool int or float that a float can
    hold; returns it as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number")


def _check_raw(raw: int) -> int:
    if not -RAW_LIMIT < raw < RAW_LIMIT:
        raise OverflowError(
            f"fixed-point value out of range: a {raw.bit_length()}-bit magnitude, limit 127 bits"
        )
    return raw


def _decimal_raw(text: str) -> int:
    """Raw value of a decimal string with at most 9 fractional digits, exactly."""
    if not isinstance(text, str) or not _DECIMAL_RE.match(text.strip()):
        raise ParseError(f"not a decimal literal: {text!r}")
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    text = text.lstrip("+-")
    whole, _, frac = text.partition(".")
    if len(frac) > 9:
        raise ParseError(f"more than 9 fractional digits: {text!r}")
    return sign * (int(whole or "0") * SCALE + int(frac.ljust(9, "0") or "0"))


@dataclass(frozen=True, order=True)
class Fixed:
    """Signed fixed-point number: ``raw`` interpreted as raw * 10^-9."""

    raw: int

    def __post_init__(self) -> None:
        if not isinstance(self.raw, int) or isinstance(self.raw, bool):
            raise TypeError("raw must be an int")
        _check_raw(self.raw)

    @classmethod
    def from_decimal(cls, text: str) -> "Fixed":
        """Parse a decimal string with at most 9 fractional digits, exactly."""
        return cls(_decimal_raw(text))

    @classmethod
    def from_int(cls, value: int) -> "Fixed":
        return cls(value * SCALE)

    @classmethod
    def from_float(cls, value: float) -> "Fixed":
        """Quantize a float, rounding half to even (submission boundary only)."""
        scaled = value * SCALE
        nearest = round(scaled)  # Python round() is half-to-even
        return cls(int(nearest))

    def to_decimal(self) -> str:
        """Exact decimal string; round-trips through from_decimal."""
        sign = "-" if self.raw < 0 else ""
        whole, frac = divmod(abs(self.raw), SCALE)
        if frac == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:09d}".rstrip("0")

    def to_float(self) -> float:
        return self.raw / SCALE

    def __add__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.raw + other.raw)

    def __sub__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.raw - other.raw)

    def __neg__(self) -> "Fixed":
        return Fixed(-self.raw)

    def __mul__(self, other: "Fixed") -> "Fixed":
        # single rescale, truncating toward zero
        return Fixed(div_toward_zero(self.raw * other.raw, SCALE))

    def mul_div(self, numerator: int, denominator: int) -> "Fixed":
        """self * numerator / denominator with one terminal rounding.

        Multiply-before-divide keeps ratios like sample-count weights exact
        until the final truncation.
        """
        return Fixed(div_toward_zero(self.raw * numerator, denominator))

    def is_negative(self) -> bool:
        return self.raw < 0

    def __repr__(self) -> str:
        return f"Fixed({self.to_decimal()!r})"


ZERO = Fixed(0)
ONE = Fixed(SCALE)


def _quantize(value: float) -> int:
    return round(value * SCALE)  # Python round() is half-to-even


def _check_range(raws: Sequence[int], check: Callable[[int], int] = _check_raw) -> None:
    """Bound-check every raw; a bound is an interval, so the extremes suffice."""
    check(min(raws))
    check(max(raws))


def _convert(values: Iterable, convert: Callable[[object], int]) -> tuple[int, ...]:
    """``convert`` mapped over ``values``, failing with the error that converting
    and range-checking them one by one would raise first."""
    values = list(values)
    try:
        return tuple(map(convert, values))
    except (TypeError, ValueError):
        for value in values:
            _check_raw(convert(value))
        raise


@dataclass(frozen=True)
class GradientVector:
    """Fixed-point vector of raw nano-unit ints; dimension is the length of
    ``components``. The range is checked once per vector, on construction."""

    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.components, tuple):
            object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) == 0:
            raise EmptyInput("vector must have at least one component")
        _check_range(self.components)

    @property
    def dim(self) -> int:
        return len(self.components)

    @classmethod
    def zeros(cls, dim: int) -> "GradientVector":
        return cls((0,) * dim)

    @classmethod
    def from_raw(cls, raws: Iterable[int]) -> "GradientVector":
        """A vector of raw ints; any other component (a bool, a float, a
        string) raises ValueError."""
        raws = tuple(raws)
        if not set(map(type, raws)) <= {int}:
            for raw in raws:  # the first bad component decides the error
                if type(raw) is not int:
                    raise ValueError(f"raw component {raw!r} is not an int")
                _check_raw(raw)
        return cls(raws)

    @classmethod
    def from_floats(cls, values: Iterable[float]) -> "GradientVector":
        """Quantize floats half-to-even, as ``Fixed.from_float`` does each one."""
        return cls(_convert(values, _quantize))

    @classmethod
    def from_decimals(cls, values: Iterable[str]) -> "GradientVector":
        return cls(_convert(values, _decimal_raw))

    def to_floats(self) -> list[float]:
        return [c / SCALE for c in self.components]

    def negate(self) -> "GradientVector":
        return GradientVector(tuple(map(neg, self.components)))

    def scale_int(self, factor: int) -> "GradientVector":
        return GradientVector(tuple(c * factor for c in self.components))

    def encode(self) -> bytes:
        """Canonical byte form: each component as signed 128-bit big-endian."""
        return b"".join(c.to_bytes(16, "big", signed=True) for c in self.components)


def _check_acc(acc: int) -> int:
    if not -ACC_LIMIT < acc < ACC_LIMIT:
        raise OverflowError("wide accumulator out of range")
    return acc


def add_terms(numerators: Sequence[int], terms: Sequence[int]) -> list[int]:
    """Elementwise numerators + terms: the next partial sums of a weighted sum,
    each bounded by ACC_LIMIT."""
    out = list(map(add, numerators, terms))
    _check_range(out, _check_acc)
    return out


def truncated_mean(numerators: Sequence[int], total: int) -> list[int]:
    """Each numerator / total, truncated toward zero once."""
    out = [div_toward_zero(a, total) for a in numerators]
    _check_range(out)
    return out


def raw_dot(a: Sequence[int], b: Sequence[int]) -> int:
    """Raw inner product of equal-length raws: every partial sum bounded, one rescale."""
    partial_sums = list(accumulate(map(mul, a, b)))
    _check_range(partial_sums, _check_acc)
    return _check_raw(div_toward_zero(partial_sums[-1], SCALE))


def dot(a: GradientVector, b: GradientVector) -> Fixed:
    """Inner product with exact wide accumulation and one terminal rescale."""
    if a.dim != b.dim:
        raise DimMismatch(f"dim {a.dim} != dim {b.dim}")
    return Fixed(raw_dot(a.components, b.components))


def norm_sq(v: GradientVector) -> Fixed:
    """Squared Euclidean norm; used for norm-bound checks without sqrt."""
    return dot(v, v)


def sample_weighted_mean(vectors: Sequence[GradientVector], counts: Sequence[int]) -> GradientVector:
    """Average of vectors weighted by integer sample counts, exactly.

    Computes sum(n_i * v_i) / N with integer numerators and a single
    truncation per component, so no precision is lost to pre-quantized
    weights. This is the aggregation path used for the global model.
    """
    if len(vectors) == 0:
        raise EmptyInput("sample_weighted_mean needs at least one vector")
    if len(counts) != len(vectors):
        raise DimMismatch(f"{len(vectors)} vectors but {len(counts)} counts")
    if any(n <= 0 for n in counts):
        raise EmptyInput("sample counts must be positive")
    dim = vectors[0].dim
    for v in vectors[1:]:
        if v.dim != dim:
            raise DimMismatch(f"dim {v.dim} != dim {dim}")
    numerators = [0] * dim
    for n, v in zip(counts, vectors):
        numerators = add_terms(numerators, [n * c for c in v.components])
    return GradientVector(truncated_mean(numerators, sum(counts)))
