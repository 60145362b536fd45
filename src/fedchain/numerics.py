"""Deterministic fixed-point scalars and gradient vectors.

Every quantity the simulated contract touches lives here as an integer
multiple of 10^-9 ("nano" units), mirroring integer-only contract
arithmetic: no floats ever enter contract state, every operation is
referentially transparent, and replays are bit-identical on any platform.

Rounding discipline: wide-integer accumulation, a single terminal rescale
per result, truncation toward zero (integer-division semantics). Overflow
raises instead of wrapping or saturating.

One array per vector: a ``GradientVector`` holds its raws as one read-only
array, ``raw``: int64 exactly when every component fits int64, else an
object array of Python ints, range-checked against ``RAW_LIMIT`` once, on
construction. An operation first checks its bound in Python ints against
``_peak``, the largest magnitude; the bound picks the array its one
expression runs on: int64 when no value formed can reach ``LANE_LIMIT``
(2**63) in magnitude, Python ints otherwise. A result that fits is int64.

- ``+``: the two largest magnitudes sum below 2**63; ``negate``: every
  magnitude is below 2**63 (INT64_MIN has no int64 negation);
  ``scale_int(c)``: ``|c|`` and ``max|raw| * |c|`` are;
- ``to_floats``: every magnitude is at most 2**53, so each int64 converts
  to float64 exactly before its one division; ``concatenate`` needs none.

Four keep two algorithms, as their paths differ in more than dtype:
``from_floats`` (``np.rint`` of scaled values finite and below 2**63, or
``Fixed.from_float``'s quantizing, one value at a time, with its errors),
``encode`` (a sign-extension word beside each int64, or ``int.to_bytes``),
``dot`` (products bounded by ``max|a| * max|b|`` < 2**63, summed in int64
blocks no partial sum of which reaches 2**63, or checked Python-int partial
sums: ``raw_dot``) and ``sample_weighted_mean`` (one int64 matrix product
when ``sum(n_i * max|raw_i|)`` and ``sum(n_i)`` are below 2**63, as
``weighted_sum_lanes`` checks, or checked Python-int partial sums:
``add_terms``, ``truncated_mean``).

So "overflow raises, never wraps" holds in int64 too: a bound that would let
an int64 expression wrap is refused before numpy runs, and each int64 result
is the Python-int result bit for bit. Magnitudes are taken in Python ints,
so INT64_MIN (whose ``np.abs`` wraps) counts as 2**63 and fails every bound,
as does every vector beyond int64. Python ints raise ``OverflowError`` past
``RAW_LIMIT`` and ``ACC_LIMIT``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DimMismatch, EmptyInput, ParseError

SCALE = 10**9
RAW_LIMIT = 2**127          # |raw| must stay below this
ACC_LIMIT = 2**255          # wide accumulator bound for dot/weighted sums
INT_LIMIT = 2**256          # |config integer| must stay below this: the contract's uint256
LANE_LIMIT = 2**63          # a lane result's magnitude bound: int64 holds every value below it
_FLOAT_EXACT = 2**53        # every int of at most this magnitude is exactly a float64

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
        return cls(_quantize(value))

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
    if not isinstance(value, Real):  # a str or list times SCALE would repeat it 10**9 times
        raise TypeError(f"not a real number: {value!r}")
    return round(value * SCALE)  # Python round() is half-to-even


def _check_range(raws: Sequence[int], check: Callable[[int], int] = _check_raw) -> None:
    """Bound-check every raw; a bound is an interval, so the extremes suffice."""
    check(min(raws))
    check(max(raws))


def _convert(values: Iterable, convert: Callable[[object], int]) -> list[int]:
    """``convert`` mapped over ``values``, failing with the error that converting
    and range-checking them one by one would raise first."""
    values = list(values)
    try:
        return list(map(convert, values))
    except (TypeError, ValueError):
        for value in values:
            _check_raw(convert(value))
        raise


def _raw_array(values) -> np.ndarray:
    """``values`` as one read-only array: a 1-D int64 array copied; other
    values int64 when every one fits, else Python ints in an object array,
    range-checked. A bool, float or string (numpy would coerce it) raises
    ValueError; the first bad component decides between that and
    OverflowError."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1:
        raw = values.copy()
    else:
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if not set(map(type, values)) <= {int}:
            for value in values:  # some value is not an int, so this loop raises
                if type(value) is not int:
                    raise ValueError(f"raw component {value!r} is not an int")
                _check_raw(value)
        try:
            raw = np.fromiter(values, np.int64, len(values))
        except OverflowError:
            _check_range(values)
            raw = np.array(values, dtype=object)
    if len(raw) == 0:
        raise EmptyInput("vector must have at least one component")
    raw.setflags(write=False)
    return raw


@dataclass(frozen=True, eq=False)
class GradientVector:
    """Fixed-point vector of raw nano-unit ints, held as one read-only array
    ``raw`` (see the module docstring); dimension is its length. Each
    component must be an int (not a bool, a float or a string) inside
    ``RAW_LIMIT``, checked once per vector, on construction."""

    raw: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "raw", _raw_array(self.raw))

    @cached_property
    def _peak(self) -> int:
        """Largest component magnitude. Python ints: np.abs(INT64_MIN) wraps,
        and -INT64_MIN is 2**63, past every int64 bound."""
        return max(int(self.raw.max()), -int(self.raw.min()))

    def _ints(self, fits: bool) -> np.ndarray:
        """``raw`` when an operation's bound fits int64, else as Python ints."""
        return self.raw if fits else self.raw.astype(object)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradientVector):
            return NotImplemented
        return self.raw.dtype == other.raw.dtype and np.array_equal(self.raw, other.raw)

    def __hash__(self) -> int:
        return hash(tuple(self.raw.tolist()))

    @property
    def dim(self) -> int:
        return len(self.raw)

    @classmethod
    def zeros(cls, dim: int) -> "GradientVector":
        return cls(np.zeros(dim, dtype=np.int64))

    @classmethod
    def from_raw(cls, raws: Iterable[int]) -> "GradientVector":
        """A vector of raw ints; any other component (a bool, a float, a
        string) raises ValueError."""
        return cls(raws)

    @classmethod
    def from_floats(cls, values: Iterable[float]) -> "GradientVector":
        """Quantize floats half-to-even, as ``Fixed.from_float`` does each one.

        A 1-D float64 array whose scaled values are all finite and below
        ``LANE_LIMIT`` in magnitude is quantized in int64: ``np.rint`` rounds
        the same float64 products half to even, and each result is an exact
        integer-valued float that fits int64. Anything else is quantized one
        value at a time, so NaN, infinities, out-of-range and non-numeric
        values raise what they raise for ``Fixed.from_float``.
        """
        if isinstance(values, np.ndarray):
            if values.ndim == 1 and values.dtype == np.float64 and values.size:
                with np.errstate(over="ignore", invalid="ignore"):
                    scaled = values * SCALE
                    fits = np.abs(scaled).max() < LANE_LIMIT  # False for NaN
                if fits:
                    return cls(np.rint(scaled).astype(np.int64))
            values = values.tolist()
        return cls(_convert(values, _quantize))

    @classmethod
    def from_decimals(cls, values: Iterable[str]) -> "GradientVector":
        return cls(_convert(values, _decimal_raw))

    def to_floats(self) -> np.ndarray:
        """Each component / SCALE as a float64, correctly rounded."""
        return (self._ints(self._peak <= _FLOAT_EXACT) / SCALE).astype(np.float64, copy=False)

    def negate(self) -> "GradientVector":
        return GradientVector(-self._ints(self._peak < LANE_LIMIT))

    def scale_int(self, factor: int) -> "GradientVector":
        scale = abs(factor)  # must fit int64 itself, even when every component is zero
        fits = scale < LANE_LIMIT and self._peak * scale < LANE_LIMIT
        return GradientVector(self._ints(fits) * factor)

    def __add__(self, other: "GradientVector") -> "GradientVector":
        if self.dim != other.dim:
            raise DimMismatch(f"dim {self.dim} != dim {other.dim}")
        fits = self._peak + other._peak < LANE_LIMIT
        return GradientVector(self._ints(fits) + other._ints(fits))

    def encode(self) -> bytes:
        """Canonical byte form: each component as signed 128-bit big-endian."""
        if self.raw.dtype == object:
            return b"".join(c.to_bytes(16, "big", signed=True) for c in self.raw)
        words = np.empty((self.dim, 2), dtype=">i8")  # a sign-extension word, then the int64 word
        words[:, 0] = self.raw >> 63
        words[:, 1] = self.raw
        return words.tobytes()


def concatenate(vectors: Sequence[GradientVector]) -> GradientVector:
    """The vectors' components end to end."""
    if len(vectors) == 1:
        return vectors[0]
    return GradientVector(np.concatenate([v.raw for v in vectors]))


def weighted_sum_lanes(
    vectors: Sequence[GradientVector], counts: Sequence[int]
) -> Optional[np.ndarray]:
    """The vectors' raws as one (len(vectors), dim) int64 array when every
    weighted sum ``sum(n_i * raw_i)`` over any subset of them, and every
    sample total, stays inside int64: ``sum(n_i * max|raw_i|)`` and
    ``sum(n_i)`` are below ``LANE_LIMIT``, which no vector beyond int64
    passes. Otherwise None, and the caller takes Python ints. Vectors of one
    dim, positive counts."""
    peaks = sum(n * v._peak for n, v in zip(counts, vectors))
    if sum(counts) >= LANE_LIMIT or peaks >= LANE_LIMIT:
        return None
    return np.stack([v.raw for v in vectors])


def _check_acc(acc: int) -> int:
    if not -ACC_LIMIT < acc < ACC_LIMIT:
        raise OverflowError("wide accumulator out of range")
    return acc


def add_terms(numerators: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Elementwise numerators + terms, object arrays of Python ints: the next
    partial sums of a weighted sum, each bounded by ACC_LIMIT."""
    out = numerators + terms
    _check_range(out, _check_acc)
    return out


def truncated_mean(numerators: np.ndarray, total: int) -> np.ndarray:
    """Each numerator (Python ints) / total > 0, truncated toward zero once."""
    out = np.sign(numerators) * (abs(numerators) // total)
    _check_range(out)
    return out


def raw_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Raw inner product of equal-length object arrays of Python ints: every
    partial sum bounded, one rescale."""
    partial_sums = np.cumsum(a * b)
    _check_range(partial_sums, _check_acc)
    return _check_raw(div_toward_zero(partial_sums[-1], SCALE))


def _lane_dot(a: np.ndarray, b: np.ndarray, reach: int) -> int:
    """Exact inner product of int64 arrays whose products are each at most
    ``reach`` < LANE_LIMIT in magnitude: products are summed in int64 in
    blocks of ``(LANE_LIMIT - 1) // reach``, so no partial sum of a block
    reaches 2**63 in any order numpy adds them, and the block sums are added
    as Python ints."""
    products = a * b
    width = (LANE_LIMIT - 1) // reach if reach else len(products)
    if width >= len(products):
        return int(products.sum())
    return sum(np.add.reduceat(products, np.arange(0, len(products), width)).tolist())


def dot(a: GradientVector, b: GradientVector) -> Fixed:
    """Inner product with exact wide accumulation and one terminal rescale.

    In int64 when every product's bound ``max|a| * max|b|`` is below 2**63;
    the exact sum then lies far inside ACC_LIMIT, so no partial-sum check
    can fail. (A vector beyond int64 passes only beside a zero vector, and
    its products are then Python-int zeros.)"""
    if a.dim != b.dim:
        raise DimMismatch(f"dim {a.dim} != dim {b.dim}")
    reach = a._peak * b._peak
    if reach < LANE_LIMIT:
        return Fixed(div_toward_zero(_lane_dot(a.raw, b.raw, reach), SCALE))
    return Fixed(raw_dot(a.raw.astype(object), b.raw.astype(object)))


def norm_sq(v: GradientVector) -> Fixed:
    """Squared Euclidean norm; used for norm-bound checks without sqrt."""
    return dot(v, v)


def sample_weighted_mean(vectors: Sequence[GradientVector], counts: Sequence[int]) -> GradientVector:
    """Average of vectors weighted by integer sample counts, exactly.

    Computes sum(n_i * v_i) / N with integer numerators and a single
    truncation per component, so no precision is lost to pre-quantized
    weights. This is the aggregation path used for the global model. It runs
    in int64 when ``weighted_sum_lanes`` admits the vectors.
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
    lanes = weighted_sum_lanes(vectors, counts)
    if lanes is not None:  # every numerator, and the total, inside int64
        numerators = np.array(counts, dtype=np.int64) @ lanes
        return GradientVector(np.sign(numerators) * (np.abs(numerators) // sum(counts)))
    numerators = np.zeros(dim, dtype=object)
    for n, v in zip(counts, vectors):
        numerators = add_terms(numerators, v.raw.astype(object) * n)
    return GradientVector(truncated_mean(numerators, sum(counts)))
