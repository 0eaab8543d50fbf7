"""The orthogonal idempotent basis of MC(n) and the change of representation.

MC(n) decomposes as a direct product of 2^(n-1) copies of MC(1).  The basis
idempotents are indexed by an (n-1)-bit mask: bit t chooses, at level
k = t + 2, between the factor (1 + i_{k-1} i_k)/2 (bit 0) and
(1 - i_{k-1} i_k)/2 (bit 1).  Index 0 is the all-plain product.  In this
basis, ring multiplication is componentwise complex multiplication.

For n = 1 the basis is {1} and a vector has a single component equal to the
number itself.

An IdempotentVector holds the 2^(n-1) components as one integer vector over
a power of two, like MulticomplexNumber, and the change of basis and the
componentwise product are the integer kernels of mc_core.  ComplexComponent
is the read-only view of one component, with conjugation as the only
operation: the ring arithmetic happens on the vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

from .mc_core import (
    DyadicRational,
    MulticomplexNumber,
    _dyadic,
    _from_kernel,
    _integer_vector,
    _merge,
    _order,
    _split,
    _times,
)

__all__ = [
    "ComplexComponent",
    "IdempotentVector",
    "basis_element",
    "to_idempotent",
    "from_idempotent",
    "componentwise_mul",
]


@dataclass(frozen=True, slots=True)
class ComplexComponent:
    """One MC(1) component, re + i1*im with dyadic parts: the read-only
    view of one coordinate of an IdempotentVector.  Arithmetic runs on the
    vector's integers, not here."""

    re: DyadicRational = 0
    im: DyadicRational = 0

    def __post_init__(self):
        object.__setattr__(self, "re", _dyadic(self.re))
        object.__setattr__(self, "im", _dyadic(self.im))

    def conjugate(self) -> "ComplexComponent":
        return ComplexComponent(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return f"{self.re}+{self.im}*i1"

    def __repr__(self) -> str:
        return f"ComplexComponent({self.re}, {self.im})"


@dataclass(frozen=True, slots=True)
class IdempotentVector:
    """An element of MC(n) in idempotent coordinates: 2^(n-1) components,
    component j being (nums[2j] + nums[2j+1] i1) / 2^exp.

    nums is given as 2^n numbers the way MulticomplexNumber takes them, and
    stored as ints in lowest terms.
    """

    order: int
    nums: tuple[int, ...]
    exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "order", _order(self.order))
        nums, exp = _integer_vector(self.nums, self.exp)
        if len(nums) != 1 << self.order:
            raise ValueError(
                f"expected {1 << (self.order - 1)} components ({1 << self.order} "
                f"numbers) for order {self.order}, got {len(nums)} numbers"
            )
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "exp", exp)

    @property
    def components(self) -> tuple[ComplexComponent, ...]:
        """The 2^(n-1) components as scalar views, built on demand."""
        e = self.exp
        return tuple(
            ComplexComponent(DyadicRational(re, e), DyadicRational(im, e))
            for re, im in zip(self.nums[::2], self.nums[1::2])
        )

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.components)
        return f"IdempotentVector({self.order}: [{inner}])"


def _n_components(n: int) -> int:
    """N = 2^(n-1), the number of idempotent components of MC(n), for
    n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1 << (n - 1)


def basis_element(index: int, order: int) -> MulticomplexNumber:
    """The basis idempotent for an (order-1)-bit index, as an explicit product.

    Bit t of the index picks the factor at level t + 2: a clear bit gives
    (1 + i_{t+1} i_{t+2})/2, a set bit gives (1 - i_{t+1} i_{t+2})/2.
    """
    if not 0 <= index < _n_components(order):
        raise ValueError(f"index {index} out of range for order {order}")
    result = MulticomplexNumber.one(order)
    for t in range(order - 1):
        factor = [0] * (1 << order)
        factor[0] = 1
        factor[0b11 << t] = -1 if (index >> t) & 1 else 1
        result = result * MulticomplexNumber(order, factor, 1)
    return result


def to_idempotent(eta: MulticomplexNumber) -> IdempotentVector:
    """Exact change of basis into idempotent coordinates."""
    return _from_kernel(IdempotentVector, eta.order, _split(eta.nums, eta.order),
                        eta.exp)


def from_idempotent(vec: IdempotentVector) -> MulticomplexNumber:
    """Exact inverse of to_idempotent."""
    n = vec.order
    return _from_kernel(MulticomplexNumber, n, _merge(vec.nums, n), vec.exp + n - 1)


def componentwise_mul(u: IdempotentVector, v: IdempotentVector) -> IdempotentVector:
    """The ring product transported to idempotent coordinates."""
    if u.order != v.order:
        raise ValueError(f"order mismatch: {u.order} vs {v.order}")
    return _from_kernel(IdempotentVector, u.order, _times(u.nums, v.nums),
                        u.exp + v.exp)
