"""Deterministic fixed-point scalars and gradient vectors.

Every quantity the simulated contract touches lives here as an integer
multiple of 10^-9 ("nano" units), mirroring integer-only contract
arithmetic: no floats ever enter contract state, every operation is
referentially transparent, and the contract's arithmetic is bit-identical
on any platform (client training is not: see ``flclients``).

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
``dot`` (on two int64 vectors, products summed in int64 blocks no partial
sum of which reaches 2**63; once ``max|a| * max|b|`` reaches 2**63, the
same on the nine limb pairs of each vector's three 21-bit limbs, shifted
and added as Python ints; beyond int64, checked Python-int partial sums:
``raw_dot``) and ``sample_weighted_mean`` (one int64 matrix product
when ``sum(n_i * max|raw_i|)`` and ``sum(n_i)`` are below 2**63, as
``weighted_sum_lanes`` checks, or checked Python-int partial sums,
``add_terms``, truncated once). ``coalition_dots``, every subset's FedAvg
dot for exact Shapley, takes int64 lanes under that same check, its dots
exact by ``dot``'s rule with each block's sums carried as quotient and
remainder by SCALE; beyond the lanes it is its definition,
``dot(sample_weighted_mean(S), full)`` for each subset S in turn.
``_truncate`` truncates every array.

So "overflow raises, never wraps" holds in int64 too: a bound that would let
an int64 expression wrap is refused before numpy runs, and each int64 result
is the Python-int result bit for bit. Magnitudes are taken in Python ints,
so INT64_MIN (whose ``np.abs`` wraps) counts as 2**63 and fails every bound,
as does every vector beyond int64. Python ints raise ``OverflowError`` past
``RAW_LIMIT`` and ``ACC_LIMIT``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from numbers import Real
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DimMismatch, EmptyInput, ParseError

SCALE = 10**9
RAW_LIMIT = 2**127          # |raw| must stay below this
ACC_LIMIT = 2**255          # wide accumulator bound for dot/weighted sums
INT_LIMIT = 2**256          # |config integer| must stay below this: the contract's uint256
LANE_LIMIT = 2**63          # a lane result's magnitude bound: int64 holds every value below it
_LANE_BLOCK_CELLS = 2**15   # subset x component cells per int64 block of coalition_dots: 256 KB
_LANE_DIM_LIMIT = 2**29     # coalition_dots' lanes take fewer components: their carries fit int64
_FLOAT_EXACT = 2**53        # every int of at most this magnitude is exactly a float64
_LIMB_BITS = 21             # an int64 as three limbs of at most 2**21 in magnitude
_LIMB_REACH = 2**42         # bound on a limb-pair product

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
    """The config rule for a number: a non-bool int or float that is finite,
    so neither an infinity nor an int beyond any float; returns it as a
    float. A NaN passes here and fails the field's own range check."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an int beyond any float
        number = math.inf
    if number in (math.inf, -math.inf):
        raise ValueError(f"{name} must be finite")
    return number


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

    def __add__(self, other: "Fixed") -> "Fixed":
        return Fixed(self.raw + other.raw)

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


def _truncate(numerators: np.ndarray, divisor) -> np.ndarray:
    """``numerators`` (int64 with no INT64_MIN, or Python ints) divided by
    ``divisor`` > 0, a scalar or a column of one per row, truncated toward
    zero in place; the one temporary, the signs, is freed on return."""
    signs = np.sign(numerators)
    np.abs(numerators, out=numerators)
    numerators //= divisor
    numerators *= signs
    return numerators


def add_terms(numerators: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Elementwise numerators + terms, object arrays of Python ints: the next
    partial sums of a weighted sum, each bounded by ACC_LIMIT."""
    out = numerators + terms
    _check_range(out, _check_acc)
    return out


def raw_dot(a: np.ndarray, b: np.ndarray) -> int:
    """Raw inner product of equal-length object arrays of Python ints: every
    partial sum bounded, one rescale."""
    partial_sums = np.cumsum(a * b)
    _check_range(partial_sums, _check_acc)
    return _check_raw(div_toward_zero(partial_sums[-1], SCALE))


def _limbs(x: np.ndarray) -> list[np.ndarray]:
    """The int64 array ``x`` as three limbs, lowest first, with
    ``x == sum(limb_k << (k * _LIMB_BITS))``: two unsigned below 2**21 and
    the signed top ``x >> 42`` in [-2**21, 2**21), so every limb is at most
    2**21 in magnitude, INT64_MIN's too."""
    mask = (1 << _LIMB_BITS) - 1
    return [x & mask, (x >> _LIMB_BITS) & mask, x >> (2 * _LIMB_BITS)]


def _lane_dot(a: np.ndarray, b: np.ndarray, reach: int) -> int:
    """Exact inner product of int64 arrays whose products are each at most
    ``reach`` in magnitude, in int64 whatever the reach.

    Below 2**63, products are summed in int64 in blocks of
    ``(LANE_LIMIT - 1) // reach``, so no partial sum of a block reaches
    2**63 in any order numpy adds them, and the block sums are added as
    Python ints. At or beyond it, ``a`` and ``b`` are split into limbs
    (``_limbs``, schoolbook multi-precision): each of the nine limb-pair dots
    has products of at most ``_LIMB_REACH`` = 2**42 and is summed by the same
    block rule, then shifted by its limbs' weight and added as Python ints."""
    if reach >= LANE_LIMIT:
        return sum(
            _lane_dot(x, y, _LIMB_REACH) << (_LIMB_BITS * (i + j))
            for i, x in enumerate(_limbs(a))
            for j, y in enumerate(_limbs(b))
        )
    products = a * b
    width = (LANE_LIMIT - 1) // reach if reach else len(products)
    if width >= len(products):
        return int(products.sum())
    return sum(np.add.reduceat(products, np.arange(0, len(products), width)).tolist())


def dot(a: GradientVector, b: GradientVector) -> Fixed:
    """Inner product with exact wide accumulation and one terminal rescale.

    Two int64 vectors take ``_lane_dot``, exact in int64 whatever their
    magnitudes: products are summed as they are while ``max|a| * max|b|``
    is below 2**63, and as 21-bit limb-pair products past it. No partial sum
    of such a dot can reach ACC_LIMIT (|product| <= 2**126, so a partial sum
    is below dim * 2**126 < 2**255), so the exact sum and ``Fixed``'s
    terminal range check give ``raw_dot``'s values and ``OverflowError``s.
    ``raw_dot``'s checked Python-int partial sums are left to vectors beyond
    int64."""
    if a.dim != b.dim:
        raise DimMismatch(f"dim {a.dim} != dim {b.dim}")
    if a.raw.dtype == object or b.raw.dtype == object:
        return Fixed(raw_dot(a.raw.astype(object), b.raw.astype(object)))
    return Fixed(div_toward_zero(_lane_dot(a.raw, b.raw, a._peak * b._peak), SCALE))


def norm_sq(v: GradientVector) -> Fixed:
    """Squared Euclidean norm; used for norm-bound checks without sqrt."""
    return dot(v, v)


def sample_weighted_mean(vectors: Sequence[GradientVector], counts: Sequence[int]) -> GradientVector:
    """Average of vectors weighted by integer sample counts, exactly.

    Computes sum(n_i * v_i) / N with integer numerators and a single
    truncation per component, so no precision is lost to pre-quantized
    weights. This is the aggregation path used for the global model. It runs
    in int64 when ``weighted_sum_lanes`` admits the vectors, else on checked
    Python-int partial sums; the means are range-checked as the vector is
    built.
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
        return GradientVector(_truncate(np.array(counts, dtype=np.int64) @ lanes, sum(counts)))
    numerators = np.zeros(dim, dtype=object)
    for n, v in zip(counts, vectors):
        numerators = add_terms(numerators, v.raw.astype(object) * n)
    return GradientVector(_truncate(numerators, sum(counts)))


def coalition_dots(
    vectors: Sequence[GradientVector], counts: Sequence[int], full: GradientVector
) -> list[int]:
    """Raw ``dot(sample_weighted_mean(S), full)`` of every subset S of the
    vectors and their counts, indexed by bitmask (bit k: ``vectors[k]``), 0
    for the empty one; no vectors give ``[0]`` and read no ``full``. On int64
    lanes, every dot exact in int64, when ``weighted_sum_lanes`` admits the
    vectors, ``full`` is int64 and its dim is below ``_LANE_DIM_LIMIT`` =
    2**29, which bounds the lanes' carries; else by that definition, one
    subset at a time in ascending mask order, so the first subset to overflow
    raises its ``OverflowError`` (no lane value can)."""
    if not vectors:
        return [0]
    lanes = weighted_sum_lanes(vectors, counts)
    if lanes is not None and full.raw.dtype == np.int64 and full.dim < _LANE_DIM_LIMIT:
        reach = max(v._peak for v in vectors) * full._peak
        return _lane_coalition_dots(lanes, counts, full.raw, reach)
    values = [0]
    for mask in range(1, 1 << len(vectors)):
        members = [k for k in range(len(vectors)) if mask >> k & 1]
        mean = sample_weighted_mean([vectors[k] for k in members], [counts[k] for k in members])
        values.append(dot(mean, full).raw)
    return values


def _lane_coalition_dots(
    lanes: np.ndarray, counts: Sequence[int], full: np.ndarray, reach: int
) -> list[int]:
    """``coalition_dots`` with every subset's truncated mean taken on whole
    int64 arrays, a block of components at a time; ``full`` is int64 with
    fewer than ``_LANE_DIM_LIMIT`` = 2**29 components, and ``reach``, in
    Python ints, is max|lanes| * max|full|.

    Only for ``lanes`` that ``weighted_sum_lanes`` admits, under
    ``sum(n_i * max|raw_i|) < 2**63`` and ``sum(n_i) < 2**63``. Subset
    numerators sum(n_i * raw_i) and sample totals are subset sums, taken by
    doubling (``_subset_sums``): every value formed is some subset's, so
    none leaves int64. |mean_c| <= max_i |raw_ic| for every subset, so each
    product of a dot with ``full`` is at most ``reach`` <= 2**126 in
    magnitude, a partial sum is below 2**29 * 2**126 < ACC_LIMIT and a
    value below 2**155 / SCALE < RAW_LIMIT: the definition's checks cannot
    fail and are not repeated.

    Each dot is exact in int64, by ``dot``'s rule. Below 2**63, each block's
    products are summed in int64 in sub-blocks of ``(2**63 - 1) // reach``
    components, so no partial sum reaches 2**63, and each sub-block sum is
    carried as its floor quotient and remainder by SCALE. At most dim <
    2**29 sub-blocks add quotients of at most 2**63 / SCALE + 1 in magnitude
    and remainders below SCALE, so neither carry leaves int64, and the dot,
    quotient * SCALE + remainder, is truncated toward zero once. At or
    beyond 2**63 the same sums run on the nine limb pairs of the means' and
    ``full``'s 21-bit limbs (``_limbs``, products of at most 2**42), whose
    carries are shifted by their limbs' weight and added as Python ints
    before the truncation. Memory is O(2**n) for the totals and the carries
    plus one table that every block reuses and a few temporaries its size
    (signs, products, limbs), each of about ``_LANE_BLOCK_CELLS`` subset x
    component cells, never a 2**n x dim table.
    """
    counts_lane = np.array(counts, dtype=np.int64)
    totals = _subset_sums(counts_lane, np.empty(1 << len(counts), np.int64))[1:, None]
    terms = lanes * counts_lane[:, None]
    limbs = reach >= LANE_LIMIT
    split = _limbs if limbs else lambda x: [x]
    fulls = split(full)
    sub = (LANE_LIMIT - 1) // max(1, _LIMB_REACH if limbs else reach)
    rows, width = len(totals) + 1, max(1, _LANE_BLOCK_CELLS // len(totals))
    buffer = np.empty(rows * min(width, len(full)), np.int64)  # every block's numerators
    carries = np.zeros((len(fulls) ** 2, 2, len(totals)), np.int64)  # quotients, remainders
    for start in range(0, len(full), width):
        block = slice(start, start + width)
        numerators = buffer[: rows * len(full[block])].reshape(rows, -1)
        means = _truncate(_subset_sums(terms[:, block], numerators)[1:], totals)
        starts = np.arange(0, means.shape[1], sub)
        for carry, (x, y) in zip(carries, product(split(means), fulls)):
            if len(starts) == 1:  # one sub-block: a matrix product sums it fastest
                carry += np.divmod(x @ y[block], SCALE)
            else:
                sums = np.add.reduceat(x * y[block], starts, axis=1)
                carry += np.sum(np.divmod(sums, SCALE), axis=2)
    if limbs:  # each limb pair's carries shifted by its limbs' weight, in Python ints
        pairs = product(range(3), repeat=2)
        carries = [c.astype(object) << (_LIMB_BITS * (i + j)) for c, (i, j) in zip(carries, pairs)]
    quotients, remainders = sum(carries)
    floors = quotients + remainders // SCALE  # remainders are never negative
    return [0] + (floors + ((floors < 0) & (remainders % SCALE > 0))).tolist()


def _subset_sums(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the sum of every subset of ``rows``, indexed by
    bitmask (bit k: row k), by doubling: the sums with bit k set are those
    below 2**k plus row k."""
    out[0] = 0
    for k, row in enumerate(rows):
        np.add(out[: 1 << k], row, out=out[1 << k : 2 << k])
    return out
