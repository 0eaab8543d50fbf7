"""GF(2) linear algebra and generation of the unit-preserving involutions.

An automorphism f of MC(n) that sends every generator i_k to a signed
canonical unit is pinned down by column masks m_1..m_n and sign bits
s_1..s_n, meaning f(i_k) = (-1)^(s_k) * (unit with mask m_k).  Collect the
masks into the n x n GF(2) matrix M (column k = m_k) and set Y = M + I.
Then f is an involution exactly when

  * Y^2 = 0 over GF(2), equivalently M^2 = I mod 2, which forces
    k = dim ker(Y^T) >= n/2, and
  * the sign bits solve the affine system  Y^T s = c,  where c_j is the
    carry parity picked up when the product of the image units over the
    bits of m_j is reduced to a canonical unit (each collision of equal
    generators contributes a factor -1 that the mod-2 exponent arithmetic
    cannot see).

The carry vector c vanishes for n <= 3, where the sign condition reduces
to the homogeneous congruence on the full (n+1) x (n+1) matrix (unit block
plus sign row plus affine corner); from n = 4 on, blocks with c != 0 exist
and the homogeneous and exact solution sets differ while having the same
size.  Everything emitted here satisfies the exact condition: every yielded
map composes with itself to the identity on the nose.

The generator walks kernels K (RREF-canonical subspaces containing the
all-ones vector), a fixed complement per kernel, and ordered independent
image tuples w inside K.  Y^T sends the i-th complement vector to w_i and K
to 0, so ker(Y^T) = K: the 2^k admissible sign vectors are the complement
combination p with Y^T p = c, found by one GF(2) solve, plus each vector
of K.  They are emitted in increasing order, so the output order is
deterministic.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .automorphism import Automorphism, _from_images

__all__ = [
    "GF2Matrix",
    "GF2Subspace",
    "solve",
    "enumerate_subspaces_containing_e",
    "enumerate_preserving_involutions",
    "unit_images_to_automorphism",
    "matrix_unit_data",
]

_MAX_WIDTH = 64


def _parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True, slots=True)
class GF2Matrix:
    """A matrix over GF(2) with bit-packed rows (bit j of row i = entry i,j)."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_rows", operator.index(self.n_rows))
        object.__setattr__(self, "n_cols", operator.index(self.n_cols))
        if not 0 <= self.n_cols <= _MAX_WIDTH or self.n_rows < 0:
            raise ValueError("bad dimensions")
        rows = tuple(self.rows)
        if len(rows) != self.n_rows:
            raise ValueError("row count mismatch")
        if any(r >> self.n_cols for r in rows):
            raise ValueError("bits set beyond column count")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[int], n_rows: int) -> "GF2Matrix":
        rows = [0] * n_rows
        for c, col in enumerate(columns):
            for r in range(n_rows):
                rows[r] |= ((col >> r) & 1) << c
        return cls(n_rows, len(columns), rows)

    def column(self, j: int) -> int:
        out = 0
        for i, row in enumerate(self.rows):
            out |= ((row >> j) & 1) << i
        return out

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch")
        out = []
        for row in self.rows:
            acc = 0
            r = row
            while r:
                low = r & -r
                acc ^= other.rows[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return GF2Matrix(self.n_rows, other.n_cols, out)

    def to_lists(self) -> list[list[int]]:
        return [
            [(row >> j) & 1 for j in range(self.n_cols)] for row in self.rows
        ]

    def __repr__(self) -> str:
        body = "; ".join(f"{row:0{max(self.n_cols, 1)}b}"[::-1] for row in self.rows)
        return f"GF2Matrix({self.n_rows}x{self.n_cols}: {body})"


def _from_rows(size: int, rows: tuple[int, ...]) -> GF2Matrix:
    """A size x size GF2Matrix from rows that the generator built in range:
    the checks of the public constructor are for outside input."""
    matrix = object.__new__(GF2Matrix)
    object.__setattr__(matrix, "n_rows", size)
    object.__setattr__(matrix, "n_cols", size)
    object.__setattr__(matrix, "rows", rows)
    return matrix


def _rref(rows: Iterable[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.  Returns (rows sorted by pivot, pivot columns).

    Pivots are the lowest set bits; columns are processed in increasing bit
    position.
    """
    pending = [r for r in rows if r]
    done: list[int] = []
    pivots: list[int] = []
    for col in range(n_cols):
        hit = next((i for i, r in enumerate(pending) if (r >> col) & 1), None)
        if hit is None:
            continue
        piv = pending.pop(hit)
        pending = [r ^ piv if (r >> col) & 1 else r for r in pending]
        done = [r ^ piv if (r >> col) & 1 else r for r in done]
        done.append(piv)
        pivots.append(col)
        pending = [r for r in pending if r]
    return done, pivots


def _rank(matrix: GF2Matrix) -> int:
    return len(_rref(matrix.rows, matrix.n_cols)[1])


@dataclass(frozen=True, slots=True)
class GF2Subspace:
    """A subspace of GF(2)^width, spanned by any vectors and stored as its
    canonical RREF basis.

    The basis rows are sorted by pivot position (lowest set bit), and each
    pivot column contains a single 1, so equal subspaces compare equal.
    The pivots are derived from the basis.
    """

    width: int
    basis: tuple[int, ...]
    pivots: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "width", operator.index(self.width))
        if self.width < 0:
            raise ValueError("width must be non-negative")
        vectors = list(self.basis)
        if any(v >> self.width for v in vectors):
            raise ValueError("vector bits beyond width")
        basis, pivots = _rref(vectors, self.width)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def reduce(self, vec: int) -> int:
        for row, p in zip(self.basis, self.pivots):
            if (vec >> p) & 1:
                vec ^= row
        return vec

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    def spanned(self) -> Iterator[int]:
        """All 2^dim vectors of the subspace (combination order, not sorted)."""
        for mask in range(1 << self.dimension):
            v = 0
            m = mask
            while m:
                low = m & -m
                v ^= self.basis[low.bit_length() - 1]
                m ^= low
            yield v

    def __repr__(self) -> str:
        rows = ", ".join(f"0b{r:0{max(self.width, 1)}b}" for r in self.basis)
        return f"GF2Subspace(width={self.width}, basis=[{rows}])"


def solve(matrix: GF2Matrix, targets: GF2Matrix) -> GF2Matrix:
    """The unique X with matrix @ X = targets; the matrix must have full
    column rank and the system must be consistent."""
    if matrix.n_rows != targets.n_rows:
        raise ValueError("row count mismatch")
    w = matrix.n_cols
    aug = [m | (t << w) for m, t in zip(matrix.rows, targets.rows)]
    rows, pivots = _rref(aug, w + targets.n_cols)
    # a pivot in the target part is a row 0 = 1
    if pivots and pivots[-1] >= w:
        raise ValueError("inconsistent system")
    if len(pivots) < w:
        raise ValueError("matrix does not have full column rank")
    out = [0] * w
    for row, p in zip(rows, pivots):
        out[p] = row >> w
    return GF2Matrix(w, targets.n_cols, out)


def enumerate_subspaces_containing_e(n: int, k: int) -> Iterator[GF2Subspace]:
    """All k-dimensional subspaces of GF(2)^n containing the all-ones vector.

    Deterministic order: pivot-column sets lexicographically, then free
    entries in increasing binary order.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    e_all = (1 << n) - 1
    for pivcols in itertools.combinations(range(n), k):
        pivot_set = set(pivcols)
        free_positions = [
            [q for q in range(p + 1, n) if q not in pivot_set] for p in pivcols
        ]
        ranges = [range(1 << len(fp)) for fp in free_positions]
        for assignment in itertools.product(*ranges):
            basis = []
            for i, p in enumerate(pivcols):
                row = 1 << p
                for b, q in enumerate(free_positions[i]):
                    row |= ((assignment[i] >> b) & 1) << q
                basis.append(row)
            r = e_all
            for row, p in zip(basis, pivcols):
                if (r >> p) & 1:
                    r ^= row
            if r == 0:
                yield GF2Subspace(n, basis)


def _independent_tuples(space: GF2Subspace, count: int) -> Iterator[tuple[int, ...]]:
    """Ordered linearly independent count-tuples of nonzero vectors from the
    subspace, in increasing lexicographic order."""
    if count < 0:
        raise ValueError("count must be non-negative")
    elems = sorted(v for v in space.spanned() if v)

    def rec(chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if len(chosen) == count:
            yield tuple(chosen)
            return
        span = GF2Subspace(space.width, chosen)
        for v in elems:
            if not span.contains(v):
                chosen.append(v)
                yield from rec(chosen)
                chosen.pop()

    yield from rec([])


def _linear_value_form(w: int) -> tuple[int, int]:
    """Linear form over component indices for an even unit mask w.

    The unit with mask w acts on the idempotent component with index u as
    the scalar (-1)^(parity(coef & u) + const); returns (coef, const).
    """
    bits = []
    m = w
    while m:
        low = m & -m
        bits.append(low.bit_length() - 1)
        m ^= low
    if len(bits) % 2:
        raise ValueError("mask must have even weight")
    coef = 0
    const = 0
    for p in range(0, len(bits), 2):
        b, top = bits[p], bits[p + 1]
        coef ^= (1 << top) - (1 << b)
        const ^= (top - b - 1) & 1
    return coef, const


def _component_tables(n: int,
                      masks: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
    """The signed permutations of the idempotent components induced by
    sending i_(k+1) to (-1)^(bit k of s) times the unit with mask masks[k],
    for every sign vector s at once, as (beta, signed): the map for s sends
    component t + 1 to signed[s & 1][t ^ x], x = (beta ^ s ^ (s >> 1)) mod
    2^(n-1), a 1-based signed component.

    The component map is affine over GF(2) in the component index t:
    component t goes to u = inv (t xor beta_s), with a sign that is affine
    in u.  The matrix inv depends on the masks alone, so one small matrix
    inversion covers the whole unit block, and the table t -> inv t is
    built by linearity, doubling over the columns of inv.  Since inv t xor
    inv x = inv (t xor x), a sign vector moves only the index x read from
    the table and the sign's constant, bit 0 of s.

    The table is checked to be a permutation, so every map's images, a
    reindexing by a XOR, are a signed permutation too.
    """
    nbits = n - 1
    lam_rows = []
    # bit r of beta_s is s_r ^ s_(r+1) ^ bit r of the part the masks fix
    beta = 0
    for r in range(nbits):
        m_lo, m_hi = masks[r], masks[r + 1]
        coef, const = _linear_value_form(m_lo ^ m_hi)
        lam_rows.append(coef)
        beta |= (_parity(m_lo & m_hi) ^ const) << r
    inv = solve(GF2Matrix(nbits, nbits, lam_rows), GF2Matrix.identity(nbits))
    table = [0]
    for j in range(nbits):
        column = inv.column(j)
        table += [u ^ column for u in table]
    if len(set(table)) != len(table):
        raise RuntimeError(f"component table of unit block {list(masks)} "
                           "is not a permutation")
    scoef, sconst = _linear_value_form(masks[0] ^ 1)
    sbase = sconst ^ (0 if masks[0] & 1 else 1)
    signed = [
        tuple([-(u + 1) if _parity(scoef & u) ^ sbase ^ c else u + 1
               for u in table])
        for c in (0, 1)
    ]
    return beta, signed


def _xor_gathers(nbits: int) -> list:
    """For each x < 2^nbits, a function taking a sequence of length 2^nbits
    to the tuple of its items at t ^ x, t = 0, 1, ..."""
    if nbits == 0:
        # an itemgetter of one index returns the item, not a 1-tuple
        return [tuple]
    size = 1 << nbits
    return [operator.itemgetter(*[t ^ x for t in range(size)])
            for x in range(size)]


def unit_images_to_automorphism(images: Sequence[tuple[int, int]],
                                n: int) -> Automorphism:
    """Build the automorphism sending each generator i_k to the signed
    canonical unit sign * (unit with mask), given as (sign, mask) pairs.

    Raises ValueError when an image squares to +1 (even number of unit
    factors) or when the masks are linearly dependent over GF(2), in which
    case the induced map sends some elementary idempotent outside the
    elementary set and is no ring automorphism.
    """
    if len(images) != n:
        raise ValueError(f"expected {n} images, got {len(images)}")
    masks = []
    signs = 0
    for k, (sign, mask) in enumerate(images):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {sign}")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask} out of range for n={n}")
        if mask.bit_count() % 2 == 0:
            raise ValueError(
                f"image with mask {mask:#b} squares to +1; every generator "
                "image must square to -1"
            )
        masks.append(mask)
        signs |= (sign < 0) << k
    if _rank(GF2Matrix.from_columns(masks, n)) != n:
        raise ValueError(
            "image masks are linearly dependent over GF(2); the induced map "
            "collapses idempotent components and is not an automorphism"
        )
    beta, signed = _component_tables(n, masks)
    x = (beta ^ signs ^ (signs >> 1)) & ((1 << (n - 1)) - 1)
    row = signed[signs & 1]
    return _from_images(n, tuple([row[t ^ x] for t in range(len(row))]))


def matrix_unit_data(matrix: GF2Matrix) -> tuple[list[int], list[int]]:
    """Read (masks, sign_bits) back from an emitted (n+1) x (n+1) matrix:
    column j < n holds masks[j] above sign bit j, and the last column is
    zero above the affine corner 1."""
    n = matrix.n_cols - 1
    masks = [matrix.column(j) & ((1 << n) - 1) for j in range(n)]
    sign_bits = [(matrix.rows[n] >> j) & 1 for j in range(n)]
    return masks, sign_bits


def _carry_vector(masks: Sequence[int]) -> int:
    """Bit j = carry parity of the product of image units over the bits of
    column j of the unit block."""
    n = len(masks)
    out = 0
    for j in range(n):
        acc = 0
        sign = 0
        m = masks[j]
        while m:
            low = m & -m
            img = masks[low.bit_length() - 1]
            sign ^= _parity(acc & img)
            acc ^= img
            m ^= low
        if acc != 1 << j:
            raise AssertionError("unit block does not square to the identity")
        out |= sign << j
    return out


def enumerate_preserving_involutions(n: int) -> Iterator[tuple[GF2Matrix, Automorphism]]:
    """All involutions of MC(n) sending each generator to a signed canonical
    unit, as (matrix, automorphism) pairs, lazily: count_preserving(n) of
    them.

    Emission order is canonical: kernel dimension k ascending, kernels by
    canonical basis, image tuples lexicographically, then admissible sign
    vectors in increasing binary order.  Every emitted map composes with
    itself to the identity exactly, signs included.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    gathers = _xor_gathers(n - 1)
    low = (1 << (n - 1)) - 1
    for k in range((n + 1) // 2, n + 1):
        kernels = sorted(
            enumerate_subspaces_containing_e(n, k), key=lambda s: s.basis
        )
        for kernel in kernels:
            complement = []
            for j in range(n):
                cand = 1 << j
                probe = GF2Subspace(n, [*kernel.basis, *complement, cand])
                if probe.dimension == k + len(complement) + 1:
                    complement.append(cand)
                if len(complement) == n - k:
                    break
            mixed = GF2Matrix.from_columns(list(kernel.basis) + complement, n)
            inv = solve(mixed, GF2Matrix.identity(n))
            # coordinates along the complement: complement[i] -> e_i, kernel -> 0
            coords = GF2Matrix(n - k, n, inv.rows[k:])
            # the sign vectors of a block are a coset of the kernel, so
            # they are distinct when the kernel's vectors are
            kernel_vectors = list(kernel.spanned())
            if len(set(kernel_vectors)) != len(kernel_vectors):
                raise RuntimeError("duplicate involution emitted")
            for wtuple in _independent_tuples(kernel, n - k):
                images = GF2Matrix.from_columns(wtuple, n)
                yt = images @ coords  # Y transposed; its kernel is `kernel`
                masks = [row ^ (1 << j) for j, row in enumerate(yt.rows)]
                carry = _carry_vector(masks)
                # Y^T s = c: images @ t = c fixes the complement part t of s,
                # and the kernel part is free
                try:
                    t = solve(images, GF2Matrix.from_columns([carry], n)).rows
                except ValueError:
                    raise RuntimeError(
                        "sign system inconsistent; no exact involution for "
                        f"unit block {masks}"
                    )
                particular = 0
                for vec, bit in zip(complement, t):
                    if bit:
                        particular ^= vec
                block = GF2Matrix.from_columns(masks, n).rows
                beta, signed = _component_tables(n, masks)
                # a map reads its block's signed table at t ^ x, in one gather
                for s in sorted(particular ^ x for x in kernel_vectors):
                    perm = gathers[(beta ^ s ^ (s >> 1)) & low](signed[s & 1])
                    yield (_from_rows(n + 1, block + (s | (1 << n),)),
                           _from_images(n, perm))
