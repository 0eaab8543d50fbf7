"""The orthogonal idempotent basis of MC(n) and the change of representation.

MC(n) decomposes as a direct product of 2^(n-1) copies of MC(1).  The basis
idempotents are indexed by an (n-1)-bit mask: bit t chooses, at level
k = t + 2, between the factor (1 + i_{k-1} i_k)/2 (bit 0) and
(1 - i_{k-1} i_k)/2 (bit 1).  Index 0 is the all-plain product.  In this
basis, ring multiplication is componentwise complex multiplication.

For n = 1 the basis is {1} and a vector has a single component equal to the
number itself.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .mc_core import DyadicRational, MulticomplexNumber, unit_product

__all__ = [
    "ComplexComponent",
    "IdempotentVector",
    "basis_element",
    "to_idempotent",
    "from_idempotent",
    "componentwise_mul",
]

_ZERO = DyadicRational(0)
_ONE = DyadicRational(1)
_HALF = DyadicRational(1, 1)


def _coerce(value) -> DyadicRational:
    if isinstance(value, DyadicRational):
        return value
    if isinstance(value, int):
        return DyadicRational(value)
    if isinstance(value, str):
        return DyadicRational.parse(value)
    raise TypeError(f"cannot use {type(value).__name__} as a component part")


class ComplexComponent:
    """One MC(1) component, stored as re + i1*im with dyadic parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _coerce(re))
        object.__setattr__(self, "im", _coerce(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexComponent is immutable")

    def __add__(self, other: "ComplexComponent") -> "ComplexComponent":
        return ComplexComponent(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexComponent") -> "ComplexComponent":
        return ComplexComponent(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexComponent":
        return ComplexComponent(-self.re, -self.im)

    def __mul__(self, other: "ComplexComponent") -> "ComplexComponent":
        return ComplexComponent(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "ComplexComponent":
        return ComplexComponent(self.re, -self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexComponent):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return f"{self.re}+{self.im}*i1"

    def __repr__(self) -> str:
        return f"ComplexComponent({self.re}, {self.im})"


class IdempotentVector:
    """An element of MC(n) in idempotent coordinates: 2^(n-1) components."""

    __slots__ = ("order", "components")

    def __init__(self, order: int, components: Iterable[ComplexComponent]):
        if order < 1:
            raise ValueError("order must be at least 1")
        comps = tuple(components)
        if len(comps) != 1 << (order - 1):
            raise ValueError(
                f"expected {1 << (order - 1)} components for order {order}, "
                f"got {len(comps)}"
            )
        if not all(isinstance(c, ComplexComponent) for c in comps):
            raise TypeError("components must be ComplexComponent values")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("IdempotentVector is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdempotentVector):
            return NotImplemented
        return self.order == other.order and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.order, self.components))

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.components)
        return f"IdempotentVector({self.order}: [{inner}])"


def basis_element(index: int, order: int) -> MulticomplexNumber:
    """The basis idempotent for an (order-1)-bit index, as an explicit product.

    Bit t of the index picks the factor at level t + 2: a clear bit gives
    (1 + i_{t+1} i_{t+2})/2, a set bit gives (1 - i_{t+1} i_{t+2})/2.
    """
    if not 0 <= index < (1 << (order - 1)):
        raise ValueError(f"index {index} out of range for order {order}")
    result = MulticomplexNumber.one(order)
    for t in range(order - 1):
        pair_mask = 0b11 << t
        sign = _ONE if not (index >> t) & 1 else -_ONE
        factor = MulticomplexNumber.from_coeff_map(
            order, {0: _HALF, pair_mask: sign * _HALF}
        )
        result = result * factor
    return result


def _split_components(coeffs: Sequence[DyadicRational], n: int) -> list[ComplexComponent]:
    """Recursive two-way split of a dense coefficient list of width 2^n."""
    if n == 1:
        return [ComplexComponent(coeffs[0], coeffs[1])]
    half = 1 << (n - 1)
    prev_unit = 1 << (n - 2)
    eta1 = coeffs[:half]
    eta2 = coeffs[half:]
    # eta2 * i_{n-1} within MC(n-1)
    rotated: list[DyadicRational] = [_ZERO] * half
    for m, c in enumerate(eta2):
        if c:
            sign, m2 = unit_product(m, prev_unit)
            rotated[m2] = -c if sign < 0 else c
    plus = [a - b for a, b in zip(eta1, rotated)]
    minus = [a + b for a, b in zip(eta1, rotated)]
    return _split_components(plus, n - 1) + _split_components(minus, n - 1)


def _merge_components(comps: Sequence[ComplexComponent], n: int) -> list[DyadicRational]:
    if n == 1:
        return [comps[0].re, comps[0].im]
    half_len = len(comps) // 2
    a = _merge_components(comps[:half_len], n - 1)
    b = _merge_components(comps[half_len:], n - 1)
    eta1 = [(x + y) * _HALF for x, y in zip(a, b)]
    diff = [(x - y) * _HALF for x, y in zip(a, b)]
    # eta2 = diff * i_{n-1}  (since diff = -eta2 * i_{n-1} and i_{n-1}^2 = -1)
    prev_unit = 1 << (n - 2)
    eta2: list[DyadicRational] = [_ZERO] * len(diff)
    for m, c in enumerate(diff):
        if c:
            sign, m2 = unit_product(m, prev_unit)
            eta2[m2] = -c if sign < 0 else c
    return eta1 + eta2


def to_idempotent(eta: MulticomplexNumber) -> IdempotentVector:
    """Exact change of basis into idempotent coordinates."""
    return IdempotentVector(eta.order, _split_components(eta.coeffs, eta.order))


def from_idempotent(vec: IdempotentVector) -> MulticomplexNumber:
    """Exact inverse of to_idempotent."""
    return MulticomplexNumber(vec.order, _merge_components(vec.components, vec.order))


def componentwise_mul(u: IdempotentVector, v: IdempotentVector) -> IdempotentVector:
    """The ring product transported to idempotent coordinates."""
    if u.order != v.order:
        raise ValueError(f"order mismatch: {u.order} vs {v.order}")
    return IdempotentVector(
        u.order, [a * b for a, b in zip(u.components, v.components)]
    )
