"""Enumeration of the square roots of -1 and 1 and of the idempotents.

Every solution of eta^2 = -1 (resp. 1, eta) in MC(n) has idempotent
components drawn from {i1, -i1} (resp. {1, -1}, {0, 1}), so each of the
three sets has exactly 2^(2^(n-1)) elements and can be enumerated by
running through all component patterns.  Soundness (each emitted element
satisfies its equation) is re-checked by the oracle module; completeness
rests on the componentwise characterization and is not re-proved here.
"""
from __future__ import annotations

import enum
from typing import Iterator, Sequence

from .idempotent import IdempotentVector, from_idempotent
from .mc_core import DyadicRational, MulticomplexNumber, _n_components

__all__ = [
    "SpecialSetKind",
    "enumerate_special",
    "special_element_for_pattern",
    "u_times",
    "idempotent_from_h",
    "is_plus_minus_elementary",
]


class SpecialSetKind(enum.Enum):
    SQUARE_MINUS_ONE = "minus-one"
    SQUARE_ONE = "one"
    IDEMPOTENT = "idempotent"


_COMPONENT_CHOICES = {
    # (re, im) for pattern bit 0 / 1 per component, lowest index least
    # significant
    SpecialSetKind.SQUARE_MINUS_ONE: ((0, 1), (0, -1)),
    SpecialSetKind.SQUARE_ONE: ((1, 0), (-1, 0)),
    SpecialSetKind.IDEMPOTENT: ((0, 0), (1, 0)),
}


def special_element_for_pattern(kind: SpecialSetKind, n: int,
                                pattern: int) -> MulticomplexNumber:
    """The element of the requested set whose component choices are encoded
    by the bits of pattern, lowest component index least significant."""
    count = _n_components(n)
    if not 0 <= pattern < (1 << count):
        raise ValueError(f"pattern {pattern} out of range for n={n}")
    zero_choice, one_choice = _COMPONENT_CHOICES[SpecialSetKind(kind)]
    nums = [
        part for j in range(count)
        for part in (one_choice if (pattern >> j) & 1 else zero_choice)
    ]
    return from_idempotent(IdempotentVector(n, nums))


def enumerate_special(kind: SpecialSetKind, n: int) -> Iterator[MulticomplexNumber]:
    """Yield all 2^(2^(n-1)) elements of the requested set, in pattern order."""
    for pattern in range(1 << _n_components(n)):
        yield special_element_for_pattern(kind, n, pattern)


def u_times(u: MulticomplexNumber,
            elements: Sequence[MulticomplexNumber]) -> list[MulticomplexNumber]:
    """Multiply each element by u, where u must square to -1.

    With u fixed, this maps the square roots of 1 bijectively onto the
    square roots of -1 and vice versa.
    """
    minus_one = -MulticomplexNumber.one(u.order)
    if u.square() != minus_one:
        raise ValueError("u does not square to -1")
    return [u * x for x in elements]


def idempotent_from_h(h: MulticomplexNumber) -> MulticomplexNumber:
    """(1 + h)/2, an idempotent whenever h squares to 1."""
    one = MulticomplexNumber.one(h.order)
    if h.square() != one:
        raise ValueError("h does not square to 1")
    return (one + h).scale(DyadicRational(1, 1))


def is_plus_minus_elementary(eta: MulticomplexNumber) -> bool:
    """True iff eta is a canonical unit or its negative."""
    support = [a for a in eta.nums if a]
    return eta.exp == 0 and len(support) == 1 and abs(support[0]) == 1
