"""Deterministic fixed-point scalars and gradient vectors.

Every quantity the simulated contract touches lives here as an integer
multiple of 10^-9 ("nano" units), mirroring integer-only contract
arithmetic: no floats ever enter contract state, every operation is
referentially transparent, and replays are bit-identical on any platform.

Rounding discipline: wide-integer accumulation, a single terminal rescale
per result, truncation toward zero (integer-division semantics). Overflow
raises instead of wrapping or saturating.

Int64 lanes: a vector whose components all fit int64 also keeps them as
one int64 array, its lane. Vector arithmetic runs on lanes in numpy when
the operation's bound, checked first in Python ints, says no value it forms
can reach ``LANE_LIMIT`` (2**63) in magnitude:

- ``GradientVector.from_floats``: every scaled float is finite and below
  2**63, so ``np.rint`` of it is an exact int64;
- ``sample_weighted_mean``: ``sum(n_i * max|raw_i|)`` and ``sum(n_i)`` are
  below 2**63 (``weighted_sum_lanes``);
- ``dot``: every product's bound ``max|a| * max|b|`` is below 2**63;
  products are summed in blocks small enough that no partial sum reaches
  2**63, and the block sums are added as Python ints;
- ``+``: the two largest magnitudes sum below 2**63;
- ``negate``: every magnitude is below 2**63 (INT64_MIN has no int64
  negation), and ``scale_int(c)``: ``|c|`` and ``max|raw| * |c|`` are;
- ``encode`` needs no bound, and ``to_floats`` needs every magnitude at most
  2**53, so each int64 converts to float64 exactly before its one division.

So "overflow raises, never wraps" holds on lanes too: a lane result cannot
wrap, because a bound that would let it is refused before numpy runs, and
each lane result is the Python-int result bit for bit. Magnitudes are taken
in Python ints, so INT64_MIN (whose ``np.abs`` wraps) counts as 2**63 and
fails every bound. Values beyond the bounds take the Python-int path, which
raises ``OverflowError`` past ``RAW_LIMIT`` and ``ACC_LIMIT`` as before.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from numbers import Real
from operator import add, mul, neg
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


def _int64(raws: tuple) -> Optional[np.ndarray]:
    """``raws`` as an int64 array, or None for ints beyond int64 that pass the
    ``RAW_LIMIT`` check. A bool, float or string (numpy would coerce it) raises
    ValueError; the first bad component decides between that and OverflowError."""
    if not set(map(type, raws)) <= {int}:
        for raw in raws:  # some raw is not an int, so this loop raises
            if type(raw) is not int:
                raise ValueError(f"raw component {raw!r} is not an int")
            _check_raw(raw)
    try:
        return np.fromiter(raws, np.int64, len(raws))
    except OverflowError:
        _check_range(raws)
        return None


@dataclass(frozen=True)
class GradientVector:
    """Fixed-point vector of raw nano-unit ints; dimension is the length of
    ``components``. The range is checked once per vector, on construction.

    A vector whose components are all ints that fit int64 also keeps them as
    an int64 array, its lane; ``encode``, ``to_floats``, ``+``, ``negate``,
    ``scale_int``, ``dot`` and ``sample_weighted_mean`` run on lanes within
    their bounds (see the module docstring), which they check against
    ``_peak``, the largest magnitude, taken in Python ints. Each component
    must be an int (not a bool, a float or a string) inside ``RAW_LIMIT``,
    checked in one pass (``_int64``); a lane needs no range check, since
    every int64 lies inside that limit. A constructor that already holds the
    components as int64 may pass that array as ``_lane``; it must equal
    ``components``.
    """

    components: tuple[int, ...]
    _lane: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.components, tuple):
            object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) == 0:
            raise EmptyInput("vector must have at least one component")
        if self._lane is None:
            object.__setattr__(self, "_lane", _int64(self.components))

    @cached_property
    def _peak(self) -> Optional[int]:
        """Largest component magnitude when the vector has a lane. Python ints:
        np.abs(INT64_MIN) wraps, and -INT64_MIN is 2**63, past every lane bound."""
        if self._lane is None:
            return None
        return max(int(self._lane.max()), -int(self._lane.min()))

    @classmethod
    def _from_lane(cls, lane: np.ndarray) -> "GradientVector":
        return cls(tuple(lane.tolist()), lane)

    @property
    def dim(self) -> int:
        return len(self.components)

    @classmethod
    def zeros(cls, dim: int) -> "GradientVector":
        return cls((0,) * dim, np.zeros(dim, dtype=np.int64))

    @classmethod
    def from_raw(cls, raws: Iterable[int]) -> "GradientVector":
        """A vector of raw ints; any other component (a bool, a float, a
        string) raises ValueError."""
        return cls(tuple(raws))

    @classmethod
    def from_floats(cls, values: Iterable[float]) -> "GradientVector":
        """Quantize floats half-to-even, as ``Fixed.from_float`` does each one.

        A 1-D float64 array whose scaled values are all finite and below
        ``LANE_LIMIT`` in magnitude is quantized on a lane: ``np.rint`` rounds
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
                    return cls._from_lane(np.rint(scaled).astype(np.int64))
            values = values.tolist()
        return cls(_convert(values, _quantize))

    @classmethod
    def from_decimals(cls, values: Iterable[str]) -> "GradientVector":
        return cls(_convert(values, _decimal_raw))

    def to_floats(self) -> np.ndarray:
        """Each component / SCALE as a float64, correctly rounded."""
        if self._lane is not None and self._peak <= _FLOAT_EXACT:
            return self._lane / SCALE  # each int64 is exactly a float64: one rounding
        return np.array([c / SCALE for c in self.components])

    def negate(self) -> "GradientVector":
        if self._lane is not None and self._peak < LANE_LIMIT:
            return GradientVector._from_lane(-self._lane)
        return GradientVector(tuple(map(neg, self.components)))

    def scale_int(self, factor: int) -> "GradientVector":
        scale = abs(factor)  # must fit int64 itself, even when every component is zero
        if self._lane is not None and scale < LANE_LIMIT and self._peak * scale < LANE_LIMIT:
            return GradientVector._from_lane(self._lane * factor)
        return GradientVector(tuple(c * factor for c in self.components))

    def __add__(self, other: "GradientVector") -> "GradientVector":
        if self.dim != other.dim:
            raise DimMismatch(f"dim {self.dim} != dim {other.dim}")
        if self._lane is not None and other._lane is not None:
            if self._peak + other._peak < LANE_LIMIT:
                return GradientVector._from_lane(self._lane + other._lane)
        return GradientVector(tuple(map(add, self.components, other.components)))

    def encode(self) -> bytes:
        """Canonical byte form: each component as signed 128-bit big-endian."""
        if self._lane is not None:  # a sign-extension word, then the int64 word
            words = np.empty((self.dim, 2), dtype=">i8")
            words[:, 0] = self._lane >> 63
            words[:, 1] = self._lane
            return words.tobytes()
        return b"".join(c.to_bytes(16, "big", signed=True) for c in self.components)


def concatenate(vectors: Sequence[GradientVector]) -> GradientVector:
    """The vectors' components end to end, joining their lanes when all have one."""
    if len(vectors) == 1:
        return vectors[0]
    components = tuple(chain.from_iterable(v.components for v in vectors))
    lanes = [v._lane for v in vectors]
    whole = all(lane is not None for lane in lanes)
    return GradientVector(components, np.concatenate(lanes) if whole else None)


def weighted_sum_lanes(
    vectors: Sequence[GradientVector], counts: Sequence[int]
) -> Optional[np.ndarray]:
    """The vectors' lanes as one (len(vectors), dim) int64 array when every
    weighted sum ``sum(n_i * raw_i)`` over any subset of them, and every
    sample total, stays inside int64: each vector has a lane, and
    ``sum(n_i * max|raw_i|)`` and ``sum(n_i)`` are below ``LANE_LIMIT``.
    Otherwise None, and the caller takes Python ints. Vectors of one dim."""
    if any(v._lane is None for v in vectors) or sum(counts) >= LANE_LIMIT:
        return None
    if sum(n * v._peak for n, v in zip(counts, vectors)) >= LANE_LIMIT:
        return None
    return np.stack([v._lane for v in vectors])


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


def _lane_dot(a: np.ndarray, b: np.ndarray, reach: int) -> int:
    """Exact inner product of int64 lanes whose products are each at most
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

    On the lanes when every product's bound ``max|a| * max|b|`` is below
    2**63; the exact sum then lies far inside ACC_LIMIT, so no partial-sum
    check can fail."""
    if a.dim != b.dim:
        raise DimMismatch(f"dim {a.dim} != dim {b.dim}")
    if a._lane is not None and b._lane is not None and a._peak * b._peak < LANE_LIMIT:
        acc = _lane_dot(a._lane, b._lane, a._peak * b._peak)
        return Fixed(div_toward_zero(acc, SCALE))
    return Fixed(raw_dot(a.components, b.components))


def norm_sq(v: GradientVector) -> Fixed:
    """Squared Euclidean norm; used for norm-bound checks without sqrt."""
    return dot(v, v)


def sample_weighted_mean(vectors: Sequence[GradientVector], counts: Sequence[int]) -> GradientVector:
    """Average of vectors weighted by integer sample counts, exactly.

    Computes sum(n_i * v_i) / N with integer numerators and a single
    truncation per component, so no precision is lost to pre-quantized
    weights. This is the aggregation path used for the global model. It runs
    on the vectors' lanes when ``weighted_sum_lanes`` admits them.
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
        return GradientVector._from_lane(np.sign(numerators) * (np.abs(numerators) // sum(counts)))
    numerators = [0] * dim
    for n, v in zip(counts, vectors):
        numerators = add_terms(numerators, [n * c for c in v.components])
    return GradientVector(truncated_mean(numerators, sum(counts)))
