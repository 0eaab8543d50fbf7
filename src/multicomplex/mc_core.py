"""Exact arithmetic in the multicomplex ring MC(n) over its canonical basis.

MC(n) is the commutative ring generated over the reals by n units i1..in,
each squaring to -1.  Its canonical basis consists of the 2^n products of
distinct units; a basis element is addressed by an n-bit mask whose bit k-1
records whether i_k appears.  Mask 0 is the real unit 1.

Coefficients are dyadic rationals (denominator a power of two), which is
exactly the coefficient domain needed by every constant arising from the
idempotent decomposition.  An element is stored as one vector of 2^n
integers over a shared power of two, kept in lowest terms, so equality is
a comparison of fields.  The product goes through the idempotent transform:
the integer kernels _split and _merge below take a vector to its 2^(n-1)
complex components and back in O(n 2^n) steps, two levels per pass over
a table of index groups that is built once per order and kept for the
last four orders used (9.5 MB at n = 16, under 20 KB at n <= 8), and
components multiply one by one.
DyadicRational is the scalar view used for parsing, printing and reading
single coefficients.  All values here are immutable.
"""
from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Mapping

__all__ = [
    "DyadicRational",
    "MulticomplexNumber",
    "unit_product",
    "unit_name",
    "parse_unit_name",
]


def _twos(bits: int, exp: int) -> int:
    """How many factors of two p / 2^exp can drop, for every p whose
    bitwise OR is bits: all of exp when every p is zero."""
    if not bits:
        return exp
    return min(exp, (bits & -bits).bit_length() - 1)


def _text(num: int, exp: int) -> str:
    """num / 2^exp as "p" or "p/q" in lowest terms."""
    if exp and not num & 1:
        shift = _twos(num, exp)
        num, exp = num >> shift, exp - shift
    return str(num) if exp == 0 else f"{num}/{1 << exp}"


@dataclass(frozen=True, slots=True)
class DyadicRational:
    """An exact rational p / 2^e kept in lowest terms: the view of one
    coefficient, for parsing, printing and comparing.  Arithmetic runs on
    the integer vectors of MulticomplexNumber; a view only negates, for
    conjugation, and adds.

    Invariants: both fields are ints (a bool is read as 0 or 1), the
    exponent is non-negative, and either it is zero or the numerator is
    odd; zero is stored as 0 / 2^0.
    """

    num: int
    exp: int = 0

    def __post_init__(self):
        if type(self.num) is not int or type(self.exp) is not int:
            for name in ("num", "exp"):
                value = getattr(self, name)
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise TypeError(f"DyadicRational {name} must be an integer, "
                                    f"got {type(value).__name__}") from None
        if self.exp < 0:
            raise ValueError("exponent must be non-negative")
        if self.exp and not self.num & 1:
            shift = _twos(self.num, self.exp)
            object.__setattr__(self, "num", self.num >> shift)
            object.__setattr__(self, "exp", self.exp - shift)

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

    def __add__(self, other) -> "DyadicRational":
        # kept for perfbench's own tests, which perturb one coefficient with it
        if not isinstance(other, (DyadicRational, int)):
            return NotImplemented
        other = _dyadic(other)
        e = max(self.exp, other.exp)
        num = (self.num << (e - self.exp)) + (other.num << (e - other.exp))
        return DyadicRational(num, e)

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.num, self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other) -> bool:
        # an int compares by value, so DyadicRational(3) == 3
        if not isinstance(other, (DyadicRational, int)):
            return NotImplemented
        other = _dyadic(other)
        return self.num == other.num and self.exp == other.exp

    def __hash__(self) -> int:
        # an integer value hashes as the int it equals
        return hash(self.num) if not self.exp else hash((self.num, self.exp))

    def __str__(self) -> str:
        return _text(self.num, self.exp)

    def __repr__(self) -> str:
        return f"DyadicRational({self})"


def _dyadic(value) -> DyadicRational:
    """The one coercion to a coefficient: a DyadicRational or an int."""
    if isinstance(value, DyadicRational):
        return value
    if isinstance(value, int):
        return DyadicRational(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def _integer_vector(values: Iterable, exp: int) -> tuple[tuple[int, ...], int]:
    """The vector values / 2^exp as integers over one power of two, in
    lowest terms.  The values may be ints or DyadicRationals."""
    if exp < 0:
        raise ValueError("exponent must be non-negative")
    nums = tuple(values)
    if set(map(type, nums)) != {int}:
        parts = [_dyadic(v) for v in nums]
        top = max([d.exp for d in parts], default=0)
        nums = tuple([d.num << (top - d.exp) for d in parts])
        exp += top
    return _lowest_terms(nums, exp)


def _lowest_terms(nums, exp: int) -> tuple[tuple[int, ...], int]:
    """The int vector nums / 2^exp, exp >= 0, with the factors of two that
    all of nums share stripped."""
    if exp:
        bits = reduce(operator.or_, nums, 0)
        if not bits & 1:
            shift = _twos(bits, exp)
            return tuple([v >> shift for v in nums]), exp - shift
    return tuple(nums), exp


def _from_kernel(cls, order: int, nums: list[int], exp: int):
    """A MulticomplexNumber or IdempotentVector (cls) from 2^order ints
    over 2^exp, exp >= 0, that an integer kernel computed.  Only the common
    factors of two are stripped: the coercion and checks of the public
    constructor are for outside input."""
    nums, exp = _lowest_terms(nums, exp)
    return _from_fields(cls, order, nums, exp)


@lru_cache(maxsize=None)
def _field_setters(cls):
    """The slot setters of order, nums and exp on cls: they write past the
    frozen dataclass's __setattr__, and cost less than object.__setattr__,
    which looks each name up first."""
    return cls.order.__set__, cls.nums.__set__, cls.exp.__set__


def _from_fields(cls, order: int, nums: tuple[int, ...], exp: int):
    """A MulticomplexNumber or IdempotentVector (cls) with these fields,
    which the caller has proved valid and in lowest terms."""
    obj = object.__new__(cls)
    set_order, set_nums, set_exp = _field_setters(cls)
    set_order(obj, order)
    set_nums(obj, nums)
    set_exp(obj, exp)
    return obj


# ---------------------------------------------------------------------------
# the idempotent transform on integer vectors
#
# At level k the split takes the halves eta1, eta2 of a width-2^k vector
# (eta = eta1 + eta2 i_k) to eta1 - eta2 i_(k-1) and eta1 + eta2 i_(k-1),
# its coordinates on (1 + i_(k-1) i_k)/2 and (1 - i_(k-1) i_k)/2.  Levels
# run from n down to 2, and a final pair is one complex component (re, im).
# With j < j' = j + 2^(k-2) in the first half and a, a', b, b' the entries
# at j, j' and one half further, that is the butterfly
#     (a, a', b, b') -> (a + b', a' - b, a - b', a' + b).
# The merge undoes it up to a factor 2 per level, which the caller adds to
# the exponent instead of dividing.
#
# The kernels take the levels two at a time, k and k - 1, from a table made
# once per order.  With s = 2^(k-3), the eight entries j + m s, m = 0..7,
# for j among the first s of a block of 8s, are closed under both levels:
# level k acts on (i0, i2, i4, i6) and (i1, i3, i5, i7), level k - 1 on
# (i0..i3) and (i4..i7).  So each group is read into locals once and
# written back once, and no index is computed in the loop.  When n is even,
# level 2 is left over and runs alone on the runs (b, b+1, b+2, b+3).  The
# tuples share the ints of one range, so the table for n = 16 holds 9.5 MB
# (1.9 MB at n = 14, 0.5 MB at n = 12, under 20 KB at n <= 8) and is built
# in 40 to 60 ms, less than one pass of the kernels it drives.  The last four
# orders used are kept: a run that moves between a few orders, such as the
# oracles' 2 to 5, builds each table once, and a caller done with n = 18
# does not hold its 43 MB for the life of the process.


@lru_cache(maxsize=4)
def _butterflies(n: int) -> tuple[tuple[tuple[int, ...], ...],
                                  tuple[tuple[int, ...], ...]]:
    """(groups, tail) for order n: the 8-index groups of the level pairs
    (n, n-1), (n-2, n-3), ... in that order, and the 4-index runs of
    level 2 when it is left over."""
    width = 1 << n
    ints = list(range(width))
    groups = []
    for level in range(n, 2, -2):
        s = 1 << (level - 3)
        for base in range(0, width, 8 * s):
            groups += [tuple(ints[t:t + 8 * s:s]) for t in range(base, base + s)]
    tail = [tuple(ints[b:b + 4]) for b in range(0, width, 4)] if n % 2 == 0 else []
    return tuple(groups), tuple(tail)


def _split(nums, n: int) -> list[int]:
    """Idempotent components of a width-2^n vector: component j is
    (out[2j], out[2j+1]), on the same power of two as the input."""
    # one statement per entry: a tuple assignment would build and unpack
    # a tuple, which costs a third of the loop
    v = list(nums)
    groups, tail = _butterflies(n)
    for i0, i1, i2, i3, i4, i5, i6, i7 in groups:
        x0 = v[i0]
        x1 = v[i1]
        x2 = v[i2]
        x3 = v[i3]
        x4 = v[i4]
        x5 = v[i5]
        x6 = v[i6]
        x7 = v[i7]
        # level k on (i0, i2, i4, i6) and (i1, i3, i5, i7)
        y0 = x0 + x6
        y2 = x2 - x4
        y4 = x0 - x6
        y6 = x2 + x4
        y1 = x1 + x7
        y3 = x3 - x5
        y5 = x1 - x7
        y7 = x3 + x5
        # level k - 1 on (i0..i3) and (i4..i7)
        v[i0] = y0 + y3
        v[i1] = y1 - y2
        v[i2] = y0 - y3
        v[i3] = y1 + y2
        v[i4] = y4 + y7
        v[i5] = y5 - y6
        v[i6] = y4 - y7
        v[i7] = y5 + y6
    for i0, i1, i2, i3 in tail:
        a = v[i0]
        a2 = v[i1]
        b = v[i2]
        b2 = v[i3]
        v[i0] = a + b2
        v[i1] = a2 - b
        v[i2] = a - b2
        v[i3] = a2 + b
    return v


def _merge(nums, n: int) -> list[int]:
    """Inverse of _split times 2^(n-1): the caller adds n - 1 to the
    exponent."""
    v = list(nums)
    groups, tail = _butterflies(n)
    for i0, i1, i2, i3 in tail:
        a = v[i0]
        a2 = v[i1]
        b = v[i2]
        b2 = v[i3]
        v[i0] = a + b
        v[i1] = a2 + b2
        v[i2] = b2 - a2
        v[i3] = a - b
    for i0, i1, i2, i3, i4, i5, i6, i7 in reversed(groups):
        x0 = v[i0]
        x1 = v[i1]
        x2 = v[i2]
        x3 = v[i3]
        x4 = v[i4]
        x5 = v[i5]
        x6 = v[i6]
        x7 = v[i7]
        # undo level k - 1 on (i0..i3) and (i4..i7)
        y0 = x0 + x2
        y1 = x1 + x3
        y2 = x3 - x1
        y3 = x0 - x2
        y4 = x4 + x6
        y5 = x5 + x7
        y6 = x7 - x5
        y7 = x4 - x6
        # undo level k on (i0, i2, i4, i6) and (i1, i3, i5, i7)
        v[i0] = y0 + y4
        v[i2] = y2 + y6
        v[i4] = y6 - y2
        v[i6] = y0 - y4
        v[i1] = y1 + y5
        v[i3] = y3 + y7
        v[i5] = y7 - y3
        v[i7] = y1 - y5
    return v


def _times(u, v) -> list[int]:
    """Componentwise complex product of two split vectors."""
    out = [0] * len(u)
    for j in range(0, len(u), 2):
        a, b, c, d = u[j], u[j + 1], v[j], v[j + 1]
        out[j] = a * c - b * d
        out[j + 1] = a * d + b * c
    return out


def unit_product(a: int, b: int) -> tuple[int, int]:
    """Signed product of two canonical units given by their masks.

    Shared units square to -1, everything commutes, so the sign is
    (-1)^popcount(a AND b) and the resulting mask is a XOR b.
    """
    sign = -1 if (a & b).bit_count() & 1 else 1
    return sign, a ^ b


def unit_name(mask: int) -> str:
    """Render a unit mask as "" (the unit 1) or e.g. "i1*i3"."""
    if mask == 0:
        return ""
    return "*".join(f"i{k + 1}" for k in range(mask.bit_length()) if (mask >> k) & 1)


@lru_cache(maxsize=4)
def _unit_names(n: int) -> tuple[str, ...]:
    """unit_name of every mask of order n, by mask: the keys of every
    element's JSON form and the names in its text, made once per order."""
    return tuple(map(unit_name, range(1 << n)))


def parse_unit_name(name: str) -> int:
    """Inverse of unit_name; accepts "" and products like "i2*i4"."""
    name = name.strip()
    if not name:
        return 0
    mask = 0
    for part in name.split("*"):
        part = part.strip()
        # isdecimal, not isdigit: int() rejects digits such as "²" that
        # isdigit accepts
        if part[:1] != "i" or not part[1:].isdecimal() or int(part[1:]) < 1:
            raise ValueError(f"bad unit name: {name!r}")
        bit = 1 << (int(part[1:]) - 1)
        if mask & bit:
            raise ValueError(f"repeated unit in name: {name!r}")
        mask |= bit
    return mask


def _order(order) -> int:
    """A ring order as an int, checked before any 2^order is made."""
    order = operator.index(order)
    if order < 1:
        raise ValueError("order must be at least 1")
    return order


@dataclass(frozen=True, slots=True)
class MulticomplexNumber:
    """An element of MC(n): coefficient m is nums[m] / 2^exp.

    nums may be given as ints or DyadicRationals; it is stored as 2^n ints
    in lowest terms (exp is zero or some entry is odd, and zero has exp 0),
    so equality is coefficient-wise.  Instances are immutable and hashable.
    """

    order: int
    nums: tuple[int, ...]
    exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "order", _order(self.order))
        nums, exp = _integer_vector(self.nums, self.exp)
        if len(nums) != 1 << self.order:
            raise ValueError(
                f"expected {1 << self.order} coefficients for order "
                f"{self.order}, got {len(nums)}"
            )
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "exp", exp)

    # ---- constructors ----

    @classmethod
    def zero(cls, order: int) -> "MulticomplexNumber":
        return cls(order, (0,) * (1 << _order(order)))

    @classmethod
    def one(cls, order: int) -> "MulticomplexNumber":
        return cls.unit(0, order)

    @classmethod
    def unit(cls, mask: int, order: int) -> "MulticomplexNumber":
        """The canonical basis element for the given mask."""
        order = _order(order)
        if not 0 <= mask < (1 << order):
            raise ValueError(f"mask {mask} out of range for order {order}")
        nums = [0] * (1 << order)
        nums[mask] = 1
        return _from_kernel(cls, order, nums, 0)

    @classmethod
    def generator(cls, k: int, order: int) -> "MulticomplexNumber":
        """The generating unit i_k, 1-based."""
        if not 1 <= k <= order:
            raise ValueError(f"generator index {k} out of range for order {order}")
        return cls.unit(1 << (k - 1), order)

    @classmethod
    def from_coeff_map(cls, order: int, coeffs: Mapping[int, object]) -> "MulticomplexNumber":
        order = _order(order)
        values = [0] * (1 << order)
        for mask, c in coeffs.items():
            if not 0 <= mask < (1 << order):
                raise ValueError(f"mask {mask} out of range for order {order}")
            values[mask] = c
        return cls(order, values)

    # ---- ring structure ----

    def _check_order(self, other: "MulticomplexNumber") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def _aligned(self, other: "MulticomplexNumber"):
        """Both vectors over the larger power of two, and its exponent."""
        self._check_order(other)
        e = max(self.exp, other.exp)
        s, t = e - self.exp, e - other.exp
        return [a << s for a in self.nums], [b << t for b in other.nums], e

    def __add__(self, other) -> "MulticomplexNumber":
        if not isinstance(other, MulticomplexNumber):
            return NotImplemented
        xs, ys, e = self._aligned(other)
        return _from_kernel(MulticomplexNumber, self.order,
                            [a + b for a, b in zip(xs, ys)], e)

    def __sub__(self, other) -> "MulticomplexNumber":
        if not isinstance(other, MulticomplexNumber):
            return NotImplemented
        xs, ys, e = self._aligned(other)
        return _from_kernel(MulticomplexNumber, self.order,
                            [a - b for a, b in zip(xs, ys)], e)

    def __neg__(self) -> "MulticomplexNumber":
        return _from_kernel(MulticomplexNumber, self.order,
                            [-a for a in self.nums], self.exp)

    def __mul__(self, other) -> "MulticomplexNumber":
        if not isinstance(other, MulticomplexNumber):
            return NotImplemented
        self._check_order(other)
        n = self.order
        product = _times(_split(self.nums, n), _split(other.nums, n))
        return _from_kernel(MulticomplexNumber, n, _merge(product, n),
                            self.exp + other.exp + n - 1)

    def scale(self, factor) -> "MulticomplexNumber":
        """Multiply every coefficient by a dyadic scalar."""
        f = _dyadic(factor)
        return _from_kernel(MulticomplexNumber, self.order,
                            [f.num * a for a in self.nums], self.exp + f.exp)

    def square(self) -> "MulticomplexNumber":
        return self * self

    def coeff(self, mask: int) -> DyadicRational:
        return DyadicRational(self.nums[mask], self.exp)

    @property
    def coeffs(self) -> tuple[DyadicRational, ...]:
        """All 2^n coefficients, in mask order."""
        return tuple(DyadicRational(a, self.exp) for a in self.nums)

    # ---- rendering and JSON ----

    def __str__(self) -> str:
        parts = []
        names = _unit_names(self.order)
        for mask, a in enumerate(self.nums):
            if not a:
                continue
            name = names[mask]
            text = _text(a, self.exp)
            if name:
                text = {"1": name, "-1": f"-{name}"}.get(text, f"{text}*{name}")
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
        names, exp = _unit_names(self.order), self.exp
        return {
            "n": self.order,
            "coeffs": {names[m]: _text(a, exp)
                       for m, a in enumerate(self.nums) if a},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MulticomplexNumber":
        if not isinstance(data, Mapping):
            raise ValueError("an element must be a JSON object")
        if "n" not in data:
            raise ValueError("missing field 'n'")
        order = data["n"]
        if not isinstance(order, int) or isinstance(order, bool):
            raise ValueError("field 'n' must be an integer")
        raw = data.get("coeffs", {})
        if not isinstance(raw, Mapping):
            raise ValueError("field 'coeffs' must be an object")
        coeffs, names = {}, {}
        for name, text in raw.items():
            mask = parse_unit_name(name)
            if names.setdefault(mask, name) != name:
                raise ValueError(f"unit names {names[mask]!r} and {name!r} "
                                 "are the same unit")
            coeffs[mask] = DyadicRational.parse(text)
        return cls.from_coeff_map(order, coeffs)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "MulticomplexNumber":
        return cls.from_json_dict(json.loads(text))
