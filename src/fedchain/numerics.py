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
from typing import Iterable, Sequence

from .errors import DimMismatch, EmptyInput, ParseError

SCALE = 10**9
RAW_LIMIT = 2**127          # |raw| must stay below this
ACC_LIMIT = 2**255          # wide accumulator bound for dot/weighted sums

_DECIMAL_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d+)?|\.\d+)$")


def div_toward_zero(numerator: int, denominator: int) -> int:
    """Integer division that truncates toward zero (like Solidity / C)."""
    if denominator == 0:
        raise ZeroDivisionError("division by zero")
    quotient = abs(numerator) // abs(denominator)
    if (numerator < 0) != (denominator < 0):
        quotient = -quotient
    return quotient


def _check_raw(raw: int) -> int:
    if not -RAW_LIMIT < raw < RAW_LIMIT:
        raise OverflowError(f"fixed-point value out of range: {raw}")
    return raw


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
        if not isinstance(text, str) or not _DECIMAL_RE.match(text.strip()):
            raise ParseError(f"not a decimal literal: {text!r}")
        text = text.strip()
        sign = -1 if text.startswith("-") else 1
        text = text.lstrip("+-")
        whole, _, frac = text.partition(".")
        if len(frac) > 9:
            raise ParseError(f"more than 9 fractional digits: {text!r}")
        raw = int(whole or "0") * SCALE + int(frac.ljust(9, "0") or "0")
        return cls(_check_raw(sign * raw))

    @classmethod
    def from_int(cls, value: int) -> "Fixed":
        return cls(value * SCALE)

    @classmethod
    def from_float(cls, value: float) -> "Fixed":
        """Quantize a float, rounding half to even (submission boundary only)."""
        scaled = value * SCALE
        nearest = round(scaled)  # Python round() is half-to-even
        return cls(_check_raw(int(nearest)))

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
        return Fixed(_check_raw(self.raw + other.raw))

    def __sub__(self, other: "Fixed") -> "Fixed":
        return Fixed(_check_raw(self.raw - other.raw))

    def __neg__(self) -> "Fixed":
        return Fixed(-self.raw)

    def __mul__(self, other: "Fixed") -> "Fixed":
        # single rescale, truncating toward zero
        return Fixed(_check_raw(div_toward_zero(self.raw * other.raw, SCALE)))

    def mul_div(self, numerator: int, denominator: int) -> "Fixed":
        """self * numerator / denominator with one terminal rounding.

        Multiply-before-divide keeps ratios like sample-count weights exact
        until the final truncation.
        """
        return Fixed(_check_raw(div_toward_zero(self.raw * numerator, denominator)))

    def is_negative(self) -> bool:
        return self.raw < 0

    def is_positive(self) -> bool:
        return self.raw > 0

    def __repr__(self) -> str:
        return f"Fixed({self.to_decimal()!r})"


ZERO = Fixed(0)
ONE = Fixed(SCALE)


@dataclass(frozen=True)
class GradientVector:
    """Fixed-point vector; dimension is the length of ``components``."""

    components: tuple[Fixed, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.components, tuple):
            object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) == 0:
            raise EmptyInput("vector must have at least one component")

    @property
    def dim(self) -> int:
        return len(self.components)

    @classmethod
    def zeros(cls, dim: int) -> "GradientVector":
        return cls((ZERO,) * dim)

    @classmethod
    def from_raw(cls, raws: Iterable[int]) -> "GradientVector":
        return cls(tuple(Fixed(int(r)) for r in raws))

    @classmethod
    def from_floats(cls, values: Iterable[float]) -> "GradientVector":
        return cls(tuple(Fixed.from_float(v) for v in values))

    @classmethod
    def from_decimals(cls, values: Iterable[str]) -> "GradientVector":
        return cls(tuple(Fixed.from_decimal(v) for v in values))

    def raws(self) -> list[int]:
        return [c.raw for c in self.components]

    def to_floats(self) -> list[float]:
        return [c.to_float() for c in self.components]

    def negate(self) -> "GradientVector":
        return GradientVector(tuple(-c for c in self.components))

    def scale_int(self, factor: int) -> "GradientVector":
        return GradientVector(tuple(Fixed(_check_raw(c.raw * factor)) for c in self.components))

    def __add__(self, other: "GradientVector") -> "GradientVector":
        _require_same_dim(self, other)
        return GradientVector(tuple(a + b for a, b in zip(self.components, other.components)))

    def encode(self) -> bytes:
        """Canonical byte form: each component as signed 128-bit big-endian."""
        return b"".join(c.raw.to_bytes(16, "big", signed=True) for c in self.components)

    @classmethod
    def decode(cls, data: bytes) -> "GradientVector":
        if len(data) == 0 or len(data) % 16 != 0:
            raise ParseError("encoded vector length must be a positive multiple of 16")
        return cls.from_raw(
            int.from_bytes(data[i : i + 16], "big", signed=True) for i in range(0, len(data), 16)
        )


def _require_same_dim(a: GradientVector, b: GradientVector) -> None:
    if a.dim != b.dim:
        raise DimMismatch(f"dim {a.dim} != dim {b.dim}")


def _check_acc(acc: int) -> int:
    if not -ACC_LIMIT < acc < ACC_LIMIT:
        raise OverflowError("wide accumulator out of range")
    return acc


def dot(a: GradientVector, b: GradientVector) -> Fixed:
    """Inner product with exact wide accumulation and one terminal rescale."""
    _require_same_dim(a, b)
    acc = 0
    for x, y in zip(a.components, b.components):
        acc = _check_acc(acc + x.raw * y.raw)
    return Fixed(_check_raw(div_toward_zero(acc, SCALE)))


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
    total = sum(counts)
    out = []
    for k in range(dim):
        acc = 0
        for n, v in zip(counts, vectors):
            acc = _check_acc(acc + n * v.components[k].raw)
        out.append(Fixed(_check_raw(div_toward_zero(acc, total))))
    return GradientVector(tuple(out))
