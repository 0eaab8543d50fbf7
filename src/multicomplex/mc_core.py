"""Exact arithmetic in the multicomplex ring MC(n) over its canonical basis.

MC(n) is the commutative ring generated over the reals by n units i1..in,
each squaring to -1.  Its canonical basis consists of the 2^n products of
distinct units; a basis element is addressed by an n-bit mask whose bit k-1
records whether i_k appears.  Mask 0 is the real unit 1.

Coefficients are dyadic rationals (denominator a power of two), which is
exactly the coefficient domain needed by every constant arising from the
idempotent decomposition.  All values here are immutable.
"""
from __future__ import annotations

import json
import re
from typing import Iterable, Iterator, Mapping

__all__ = [
    "DyadicRational",
    "MulticomplexNumber",
    "unit_product",
    "unit_name",
    "parse_unit_name",
]


class DyadicRational:
    """An exact rational p / 2^e kept in lowest terms.

    Invariants: the exponent is non-negative, and either it is zero or the
    numerator is odd; zero is stored as 0 / 2^0.  Arithmetic never rounds.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            raise ValueError("exponent must be non-negative")
        if num == 0:
            exp = 0
        else:
            while exp > 0 and num % 2 == 0:
                num //= 2
                exp -= 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicRational is immutable")

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        """Parse "p" or "p/q" where q is a positive power of two."""
        if not isinstance(text, str):
            raise ValueError(f"not a dyadic rational: {text!r}")
        text = text.strip()
        m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
        if not m:
            raise ValueError(f"not a dyadic rational: {text!r}")
        p = int(m.group(1))
        if m.group(2) is None:
            return cls(p)
        q = int(m.group(2))
        if q <= 0 or q & (q - 1):
            raise ValueError(f"denominator is not a power of two: {text!r}")
        return cls(p, q.bit_length() - 1)

    @staticmethod
    def _coerce(value) -> "DyadicRational":
        if isinstance(value, DyadicRational):
            return value
        if isinstance(value, int):
            return DyadicRational(value)
        return NotImplemented

    def __add__(self, other) -> "DyadicRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = max(self.exp, other.exp)
        num = (self.num << (e - self.exp)) + (other.num << (e - other.exp))
        return DyadicRational(num, e)

    __radd__ = __add__

    def __sub__(self, other) -> "DyadicRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "DyadicRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "DyadicRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return DyadicRational(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.num, self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"DyadicRational({self})"


_ZERO = DyadicRational(0)
_ONE = DyadicRational(1)


def unit_product(a: int, b: int) -> tuple[int, int]:
    """Signed product of two canonical units given by their masks.

    Shared units square to -1, everything commutes, so the sign is
    (-1)^popcount(a AND b) and the resulting mask is a XOR b.
    """
    sign = -1 if bin(a & b).count("1") % 2 else 1
    return sign, a ^ b


def unit_name(mask: int) -> str:
    """Render a unit mask as "" (the unit 1) or e.g. "i1*i3"."""
    if mask == 0:
        return ""
    return "*".join(f"i{k + 1}" for k in range(mask.bit_length()) if (mask >> k) & 1)


def parse_unit_name(name: str) -> int:
    """Inverse of unit_name; accepts "" and products like "i2*i4"."""
    name = name.strip()
    if not name:
        return 0
    mask = 0
    for part in name.split("*"):
        m = re.fullmatch(r"i(\d+)", part.strip())
        if not m or int(m.group(1)) < 1:
            raise ValueError(f"bad unit name: {name!r}")
        bit = 1 << (int(m.group(1)) - 1)
        if mask & bit:
            raise ValueError(f"repeated unit in name: {name!r}")
        mask |= bit
    return mask


def _coerce_coeff(value) -> DyadicRational:
    if isinstance(value, DyadicRational):
        return value
    if isinstance(value, int):
        return DyadicRational(value)
    if isinstance(value, str):
        return DyadicRational.parse(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class MulticomplexNumber:
    """An element of MC(n): a dense vector of 2^n dyadic coefficients.

    Equality is coefficient-wise.  Instances are immutable and hashable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable):
        if order < 1:
            raise ValueError("order must be at least 1")
        cs = tuple(_coerce_coeff(c) for c in coeffs)
        if len(cs) != 1 << order:
            raise ValueError(
                f"expected {1 << order} coefficients for order {order}, got {len(cs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("MulticomplexNumber is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, order: int) -> "MulticomplexNumber":
        return cls(order, [_ZERO] * (1 << order))

    @classmethod
    def one(cls, order: int) -> "MulticomplexNumber":
        return cls.unit(0, order)

    @classmethod
    def unit(cls, mask: int, order: int) -> "MulticomplexNumber":
        """The canonical basis element for the given mask."""
        if not 0 <= mask < (1 << order):
            raise ValueError(f"mask {mask} out of range for order {order}")
        cs = [_ZERO] * (1 << order)
        cs[mask] = _ONE
        return cls(order, cs)

    @classmethod
    def generator(cls, k: int, order: int) -> "MulticomplexNumber":
        """The generating unit i_k, 1-based."""
        if not 1 <= k <= order:
            raise ValueError(f"generator index {k} out of range for order {order}")
        return cls.unit(1 << (k - 1), order)

    @classmethod
    def from_coeff_map(cls, order: int, coeffs: Mapping[int, object]) -> "MulticomplexNumber":
        cs = [_ZERO] * (1 << order)
        for mask, c in coeffs.items():
            if not 0 <= mask < (1 << order):
                raise ValueError(f"mask {mask} out of range for order {order}")
            cs[mask] = _coerce_coeff(c)
        return cls(order, cs)

    # ---- ring structure ----

    def _check_order(self, other: "MulticomplexNumber") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other) -> "MulticomplexNumber":
        if not isinstance(other, MulticomplexNumber):
            return NotImplemented
        self._check_order(other)
        return MulticomplexNumber(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other) -> "MulticomplexNumber":
        if not isinstance(other, MulticomplexNumber):
            return NotImplemented
        self._check_order(other)
        return MulticomplexNumber(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "MulticomplexNumber":
        return MulticomplexNumber(self.order, [-a for a in self.coeffs])

    def __mul__(self, other) -> "MulticomplexNumber":
        if not isinstance(other, MulticomplexNumber):
            return NotImplemented
        self._check_order(other)
        out = [_ZERO] * (1 << self.order)
        left = [(m, c) for m, c in enumerate(self.coeffs) if c]
        right = [(m, c) for m, c in enumerate(other.coeffs) if c]
        for ma, ca in left:
            for mb, cb in right:
                sign, m = unit_product(ma, mb)
                term = ca * cb
                out[m] = out[m] + (-term if sign < 0 else term)
        return MulticomplexNumber(self.order, out)

    def scale(self, factor) -> "MulticomplexNumber":
        """Multiply every coefficient by a dyadic scalar."""
        f = _coerce_coeff(factor)
        return MulticomplexNumber(self.order, [f * c for c in self.coeffs])

    def square(self) -> "MulticomplexNumber":
        return self * self

    def embed(self, order: int) -> "MulticomplexNumber":
        """Reinterpret in MC(order) for order >= self.order, padding with 0."""
        if order < self.order:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        cs = list(self.coeffs) + [_ZERO] * ((1 << order) - (1 << self.order))
        return MulticomplexNumber(order, cs)

    def coeff(self, mask: int) -> DyadicRational:
        return self.coeffs[mask]

    def support(self) -> Iterator[tuple[int, DyadicRational]]:
        """Nonzero (mask, coefficient) pairs in increasing mask order."""
        return ((m, c) for m, c in enumerate(self.coeffs) if c)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MulticomplexNumber):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    # ---- rendering and JSON ----

    def __str__(self) -> str:
        parts = []
        for mask, c in self.support():
            name = unit_name(mask)
            if name:
                text = f"{c}*{name}" if c not in (_ONE, -_ONE) else (
                    name if c == _ONE else f"-{name}")
            else:
                text = str(c)
            parts.append(text)
        if not parts:
            return "0"
        joined = parts[0]
        for p in parts[1:]:
            joined += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return joined

    def __repr__(self) -> str:
        return f"MulticomplexNumber({self.order}: {self})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.order,
            "coeffs": {unit_name(m): str(c) for m, c in self.support()},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MulticomplexNumber":
        if not isinstance(data, Mapping):
            raise ValueError("an element must be a JSON object")
        if "n" not in data:
            raise ValueError("missing field 'n'")
        order = data["n"]
        if not isinstance(order, int):
            raise ValueError("field 'n' must be an integer")
        raw = data.get("coeffs", {})
        if not isinstance(raw, Mapping):
            raise ValueError("field 'coeffs' must be an object")
        coeffs = {
            parse_unit_name(name): DyadicRational.parse(text)
            for name, text in raw.items()
        }
        return cls.from_coeff_map(order, coeffs)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "MulticomplexNumber":
        return cls.from_json_dict(json.loads(text))
