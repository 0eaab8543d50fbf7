"""Signed permutations and the real-linear automorphisms of MC(n).

The automorphisms of MC(n) correspond bijectively to signed permutations of
the 2^(n-1) idempotent components: the component at index j is carried to
index |pi(j)|, conjugated when pi(j) is negative.  Composition of signed
permutations is fixed as (pi o rho)(j) = pi(rho(j)) with pi(-j) = -pi(j),
which makes the correspondence a group isomorphism for this action.

Indices are 1-based inside SignedPermutation, matching the text format
"3,-2,4,1"; component positions elsewhere are 0-based.
"""
from __future__ import annotations

import itertools
import json
import math
from typing import Iterator, Mapping, Sequence

from .idempotent import IdempotentVector, from_idempotent, to_idempotent
from .mc_core import MulticomplexNumber

__all__ = [
    "SignedPermutation",
    "Automorphism",
    "CycleType",
    "enumerate_automorphisms",
    "enumerate_r_involutions",
]


class SignedPermutation:
    """An element of B_N: a bijection pi of {-N..-1, 1..N} with pi(-j) = -pi(j).

    Only the images of 1..N are stored, as signed integers.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        n = len(imgs)
        if sorted(abs(v) for v in imgs) != list(range(1, n + 1)) or 0 in imgs:
            raise ValueError(f"not a signed permutation: {imgs}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPermutation is immutable")

    @property
    def n_symbols(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(range(1, n + 1))

    def __call__(self, j: int) -> int:
        """Image of a signed symbol j with |j| in 1..N."""
        if j > 0:
            return self.images[j - 1]
        return -self.images[-j - 1]

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """self after other: (self.compose(other))(j) = self(other(j))."""
        if self.n_symbols != other.n_symbols:
            raise ValueError("size mismatch")
        return SignedPermutation([self(other(j)) for j in range(1, self.n_symbols + 1)])

    def inverse(self) -> "SignedPermutation":
        out = [0] * self.n_symbols
        for j, v in enumerate(self.images, start=1):
            out[abs(v) - 1] = j if v > 0 else -j
        return SignedPermutation(out)

    def signed_cycles(self) -> list[tuple[int, int]]:
        """Cycles of the underlying permutation with their sign products.

        Returns (length, sign) per cycle; sign is the product of the image
        signs along the cycle.
        """
        n = self.n_symbols
        seen = [False] * n
        cycles = []
        for start in range(1, n + 1):
            if seen[start - 1]:
                continue
            length = 0
            sign = 1
            j = start
            while not seen[j - 1]:
                seen[j - 1] = True
                v = self.images[j - 1]
                sign = -sign if v < 0 else sign
                j = abs(v)
                length += 1
            cycles.append((length, sign))
        return cycles

    def cycle_type(self) -> "CycleType":
        """Cycle type of the underlying unsigned permutation."""
        mult: dict[int, int] = {}
        for length, _ in self.signed_cycles():
            mult[length] = mult.get(length, 0) + 1
        return CycleType(mult)

    def order(self) -> int:
        """Smallest t with pi^t = identity.

        A cycle of length s contributes s when its sign product is +1 and
        2s when it is -1.
        """
        result = 1
        for length, sign in self.signed_cycles():
            result = math.lcm(result, length if sign > 0 else 2 * length)
        return result

    # ---- text and JSON forms ----

    @classmethod
    def from_text(cls, text: str) -> "SignedPermutation":
        """Parse the comma-separated form, e.g. "3,-2,4,1"."""
        try:
            images = [int(part) for part in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad signed permutation text: {text!r}") from exc
        return cls(images)

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.images)

    def to_json_dict(self) -> dict:
        return {"N": self.n_symbols, "images": list(self.images)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SignedPermutation":
        perm = cls(data["images"])
        if perm.n_symbols != data.get("N", perm.n_symbols):
            raise ValueError("field 'N' disagrees with the number of images")
        return perm

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"SignedPermutation({self.to_text()})"


class CycleType:
    """A multiset of cycle lengths: maps length k to its multiplicity."""

    __slots__ = ("multiplicities",)

    def __init__(self, multiplicities: Mapping[int, int]):
        mult = {int(k): int(m) for k, m in multiplicities.items() if m}
        if any(k < 1 or m < 0 for k, m in mult.items()):
            raise ValueError(f"bad cycle type: {multiplicities}")
        object.__setattr__(self, "multiplicities", mult)

    def __setattr__(self, name, value):
        raise AttributeError("CycleType is immutable")

    def total(self) -> int:
        """Number of symbols moved or fixed: sum of k * multiplicity."""
        return sum(k * m for k, m in self.multiplicities.items())

    def count(self, k: int) -> int:
        return self.multiplicities.get(k, 0)

    def permutation_count(self) -> int:
        """Number of permutations of S_total with this cycle type."""
        n = self.total()
        denom = 1
        for k, m in self.multiplicities.items():
            denom *= k ** m * math.factorial(m)
        return math.factorial(n) // denom

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycleType):
            return NotImplemented
        return self.multiplicities == other.multiplicities

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.multiplicities.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}^{m}" for k, m in sorted(self.multiplicities.items()))
        return f"CycleType({inner})"


class Automorphism:
    """A real-linear ring automorphism of MC(n), held as its signed permutation."""

    __slots__ = ("order_n", "perm")

    def __init__(self, order_n: int, perm: SignedPermutation):
        if perm.n_symbols != 1 << (order_n - 1):
            raise ValueError(
                f"permutation of {perm.n_symbols} symbols does not act on "
                f"the {1 << (order_n - 1)} components of MC({order_n})"
            )
        object.__setattr__(self, "order_n", order_n)
        object.__setattr__(self, "perm", perm)

    def __setattr__(self, name, value):
        raise AttributeError("Automorphism is immutable")

    @classmethod
    def identity(cls, n: int) -> "Automorphism":
        return cls(n, SignedPermutation.identity(1 << (n - 1)))

    @classmethod
    def from_text(cls, n: int, text: str) -> "Automorphism":
        return cls(n, SignedPermutation.from_text(text))

    def apply(self, eta: MulticomplexNumber) -> MulticomplexNumber:
        """Act on an element: component j moves to |pi(j)|, conjugated if
        pi(j) < 0."""
        if eta.order != self.order_n:
            raise ValueError(f"order mismatch: {eta.order} vs {self.order_n}")
        vec = to_idempotent(eta)
        out = list(vec.components)
        for j, comp in enumerate(vec.components):
            v = self.perm.images[j]
            out[abs(v) - 1] = comp if v > 0 else comp.conjugate()
        return from_idempotent(IdempotentVector(self.order_n, out))

    def compose(self, other: "Automorphism") -> "Automorphism":
        if self.order_n != other.order_n:
            raise ValueError("order mismatch")
        return Automorphism(self.order_n, self.perm.compose(other.perm))

    def inverse(self) -> "Automorphism":
        return Automorphism(self.order_n, self.perm.inverse())

    def element_order(self) -> int:
        return self.perm.order()

    def is_involution(self) -> bool:
        return self.element_order() <= 2

    def is_r_involution(self, r: int) -> bool:
        """True iff applying the map r times gives the identity."""
        if r < 1:
            raise ValueError("r must be positive")
        return r % self.element_order() == 0

    def unit_images(self) -> list[MulticomplexNumber]:
        """The images of the generating units i_1..i_n."""
        return [
            self.apply(MulticomplexNumber.generator(k, self.order_n))
            for k in range(1, self.order_n + 1)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.order_n == other.order_n and self.perm == other.perm

    def __hash__(self) -> int:
        return hash((self.order_n, self.perm))

    def __repr__(self) -> str:
        return f"Automorphism(n={self.order_n}, pi={self.perm.to_text()})"


def enumerate_automorphisms(n: int) -> Iterator[Automorphism]:
    """All automorphisms of MC(n), in deterministic order, lazily: there are
    2^N * N! of them, N = 2^(n-1).

    Unsigned permutations run lexicographically; for each, sign masks run in
    increasing binary order with bit j flipping the sign of the image of j+1.
    """
    N = 1 << (n - 1)
    for base in itertools.permutations(range(1, N + 1)):
        for mask in range(1 << N):
            images = [
                -base[j] if (mask >> j) & 1 else base[j] for j in range(N)
            ]
            yield Automorphism(n, SignedPermutation(images))


def enumerate_r_involutions(n: int, r: int) -> Iterator[Automorphism]:
    """All automorphisms f of MC(n) with f composed r times the identity.

    Filters the full enumeration by element order dividing r, which agrees
    with literal r-fold composition.
    """
    if r < 1:
        raise ValueError("r must be positive")
    for f in enumerate_automorphisms(n):
        if r % f.element_order() == 0:
            yield f
