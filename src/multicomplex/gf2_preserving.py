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

The generator walks kernels (RREF-canonical subspaces containing the
all-ones vector), a fixed complement per kernel, ordered independent image
tuples inside the kernel, and finally the 2^k admissible sign vectors, so
its output order is deterministic.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .automorphism import Automorphism, SignedPermutation
from .mc_core import MulticomplexNumber

__all__ = [
    "GF2Matrix",
    "GF2Subspace",
    "rank",
    "kernel_basis",
    "solve",
    "solve_affine",
    "enumerate_subspaces_containing_e",
    "enumerate_independent_tuples",
    "enumerate_preserving_involutions",
    "unit_images_to_automorphism",
    "unit_images_matrix",
    "matrix_unit_data",
]

_MAX_WIDTH = 64


def _parity(x: int) -> int:
    return x.bit_count() & 1


class GF2Matrix:
    """A matrix over GF(2) with bit-packed rows (bit j of row i = entry i,j)."""

    __slots__ = ("n_rows", "n_cols", "rows")

    def __init__(self, n_rows: int, n_cols: int, rows: Sequence[int]):
        if not 0 <= n_cols <= _MAX_WIDTH or n_rows < 0:
            raise ValueError("bad dimensions")
        rows = tuple(rows)
        if len(rows) != n_rows:
            raise ValueError("row count mismatch")
        if any(r >> n_cols for r in rows):
            raise ValueError("bits set beyond column count")
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("GF2Matrix is immutable")

    @classmethod
    def zero(cls, n_rows: int, n_cols: int) -> "GF2Matrix":
        return cls(n_rows, n_cols, [0] * n_rows)

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

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        out = 0
        for i, row in enumerate(self.rows):
            out |= ((row >> j) & 1) << i
        return out

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix.from_columns(list(self.rows), self.n_cols)

    def __add__(self, other: "GF2Matrix") -> "GF2Matrix":
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("shape mismatch")
        return GF2Matrix(
            self.n_rows, self.n_cols,
            [a ^ b for a, b in zip(self.rows, other.rows)],
        )

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

    def apply(self, vec: int) -> int:
        """Matrix-vector product, the vector packed as an int."""
        out = 0
        for i, row in enumerate(self.rows):
            out |= _parity(row & vec) << i
        return out

    def to_lists(self) -> list[list[int]]:
        return [
            [(row >> j) & 1 for j in range(self.n_cols)] for row in self.rows
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n_rows, self.n_cols, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(f"{row:0{max(self.n_cols, 1)}b}"[::-1] for row in self.rows)
        return f"GF2Matrix({self.n_rows}x{self.n_cols}: {body})"


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


def rank(matrix: GF2Matrix) -> int:
    return len(_rref(matrix.rows, matrix.n_cols)[1])


class GF2Subspace:
    """A subspace of GF(2)^width, stored as a canonical RREF basis.

    The basis rows are sorted by pivot position (lowest set bit), and each
    pivot column contains a single 1, so equal subspaces compare equal.
    """

    __slots__ = ("width", "basis", "pivots")

    def __init__(self, width: int, basis: Sequence[int], pivots: Sequence[int]):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("GF2Subspace is immutable")

    @classmethod
    def from_vectors(cls, vectors: Iterable[int], width: int) -> "GF2Subspace":
        vectors = list(vectors)
        if any(v >> width for v in vectors):
            raise ValueError("vector bits beyond width")
        basis, pivots = _rref(vectors, width)
        return cls(width, basis, pivots)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Subspace):
            return NotImplemented
        return self.width == other.width and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.width, self.basis))

    def __repr__(self) -> str:
        rows = ", ".join(f"0b{r:0{max(self.width, 1)}b}" for r in self.basis)
        return f"GF2Subspace(width={self.width}, basis=[{rows}])"


def kernel_basis(matrix: GF2Matrix) -> GF2Subspace:
    """The null space of the matrix, as a canonical subspace of GF(2)^n_cols."""
    rows, pivots = _rref(matrix.rows, matrix.n_cols)
    pivot_set = set(pivots)
    basis = []
    for q in range(matrix.n_cols):
        if q in pivot_set:
            continue
        vec = 1 << q
        for row, p in zip(rows, pivots):
            if (row >> q) & 1:
                vec |= 1 << p
        basis.append(vec)
    return GF2Subspace.from_vectors(basis, matrix.n_cols)


def solve(matrix: GF2Matrix, targets: GF2Matrix) -> GF2Matrix:
    """The unique X with matrix @ X = targets; the matrix must have full
    column rank and the system must be consistent."""
    if matrix.n_rows != targets.n_rows:
        raise ValueError("row count mismatch")
    w = matrix.n_cols
    aug = [m | (t << w) for m, t in zip(matrix.rows, targets.rows)]
    rows, pivots = _rref(aug, w)
    # _rref only eliminated through column w-1; anything left over with a
    # zero matrix part but nonzero target part marks an inconsistent system.
    reduced, _ = _rref(aug, w + targets.n_cols)
    for r in reduced:
        if r and not (r & ((1 << w) - 1)):
            raise ValueError("inconsistent system")
    if len(pivots) < w:
        raise ValueError("matrix does not have full column rank")
    out = [0] * w
    for row, p in zip(rows, pivots):
        out[p] = row >> w
    return GF2Matrix(w, targets.n_cols, out)


def solve_affine(matrix: GF2Matrix, rhs: int) -> tuple[int, GF2Subspace]:
    """All solutions of matrix @ x = rhs: a particular solution plus the
    kernel.  Raises ValueError when the system is inconsistent."""
    if rhs >> matrix.n_rows:
        raise ValueError("rhs bits beyond row count")
    w = matrix.n_cols
    aug = [row | (((rhs >> i) & 1) << w) for i, row in enumerate(matrix.rows)]
    rows, pivots = _rref(aug, w)
    # a full reduction catches any leftover 0 = 1 row
    _, full_pivots = _rref(aug, w + 1)
    if w in full_pivots:
        raise ValueError("inconsistent system")
    particular = 0
    for row, p in zip(rows, pivots):
        if row >> w:
            particular |= 1 << p
    return particular, kernel_basis(matrix)


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
                yield GF2Subspace(n, basis, pivcols)


def enumerate_independent_tuples(space: GF2Subspace, count: int) -> Iterator[tuple[int, ...]]:
    """Ordered linearly independent count-tuples of nonzero vectors from the
    subspace, in increasing lexicographic order."""
    if count < 0:
        raise ValueError("count must be non-negative")
    elems = sorted(v for v in space.spanned() if v)

    def rec(chosen: list[int]) -> Iterator[tuple[int, ...]]:
        if len(chosen) == count:
            yield tuple(chosen)
            return
        span = GF2Subspace.from_vectors(chosen, space.width)
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


def _action_from_unit_data(n: int, masks: Sequence[int],
                           sign_bits: Sequence[int]) -> Automorphism:
    """Signed permutation of the idempotent components induced by sending
    i_(k+1) to (-1)^(sign_bits[k]) times the unit with mask masks[k].

    The component map is affine over GF(2) in the component index, so one
    small matrix inversion covers all components.
    """
    nbits = n - 1
    lam_rows = []
    beta = 0
    for r in range(nbits):
        m_lo, m_hi = masks[r], masks[r + 1]
        coef, const = _linear_value_form(m_lo ^ m_hi)
        carry = _parity(m_lo & m_hi)
        lam_rows.append(coef)
        beta |= ((sign_bits[r] ^ sign_bits[r + 1] ^ carry ^ const) & 1) << r
    lam = GF2Matrix(nbits, nbits, lam_rows)
    inv = solve(lam, GF2Matrix.identity(nbits))
    scoef, sconst = _linear_value_form(masks[0] ^ 1)
    sbase = sign_bits[0] ^ sconst ^ (0 if masks[0] & 1 else 1)
    images = []
    for t in range(1 << nbits):
        x = t ^ beta
        u = 0
        for r in range(nbits):
            u |= _parity(inv.rows[r] & x) << r
        negative = sbase ^ _parity(scoef & u)
        images.append(-(u + 1) if negative else u + 1)
    return Automorphism(n, SignedPermutation(images))


def _as_signed_unit(image, n: int) -> tuple[int, int]:
    """Coerce an image description to (sign, mask): accepts (sign, mask)
    pairs or MulticomplexNumber values that are signed canonical units."""
    if isinstance(image, MulticomplexNumber):
        terms = [(mask, c) for mask, c in image.support()]
        if len(terms) != 1:
            raise ValueError(f"not a signed canonical unit: {image}")
        mask, coeff = terms[0]
        if coeff.exp != 0 or coeff.num not in (1, -1):
            raise ValueError(f"not a signed canonical unit: {image}")
        return (1 if coeff.num > 0 else -1), mask
    sign, mask = image
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    if not 0 <= mask < (1 << n):
        raise ValueError(f"mask {mask} out of range for n={n}")
    return sign, mask


def unit_images_to_automorphism(images: Sequence, n: int) -> Automorphism:
    """Build the automorphism sending each generator i_k to the given signed
    canonical unit.

    Raises ValueError when an image squares to +1 (even number of unit
    factors) or when the masks are linearly dependent over GF(2), in which
    case the induced map sends some elementary idempotent outside the
    elementary set and is no ring automorphism.
    """
    if len(images) != n:
        raise ValueError(f"expected {n} images, got {len(images)}")
    masks = []
    sign_bits = []
    for image in images:
        sign, mask = _as_signed_unit(image, n)
        if mask.bit_count() % 2 == 0:
            raise ValueError(
                f"image with mask {mask:#b} squares to +1; every generator "
                "image must square to -1"
            )
        masks.append(mask)
        sign_bits.append(0 if sign > 0 else 1)
    if rank(GF2Matrix.from_columns(masks, n)) != n:
        raise ValueError(
            "image masks are linearly dependent over GF(2); the induced map "
            "collapses idempotent components and is not an automorphism"
        )
    return _action_from_unit_data(n, masks, sign_bits)


def unit_images_matrix(n: int, masks: Sequence[int],
                       sign_bits: Sequence[int]) -> GF2Matrix:
    """The (n+1) x (n+1) matrix of the map over GF(2): unit-exponent block,
    sign row, and affine corner 1."""
    rows = []
    for m in range(n):
        row = 0
        for j in range(n):
            row |= ((masks[j] >> m) & 1) << j
        rows.append(row)
    srow = 0
    for j, s in enumerate(sign_bits):
        srow |= (s & 1) << j
    rows.append(srow | (1 << n))
    return GF2Matrix(n + 1, n + 1, rows)


def matrix_unit_data(matrix: GF2Matrix) -> tuple[list[int], list[int]]:
    """Inverse of unit_images_matrix: read back (masks, sign_bits)."""
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
    seen: set[tuple[tuple[int, ...], int]] = set()
    for k in range((n + 1) // 2, n + 1):
        kernels = sorted(
            enumerate_subspaces_containing_e(n, k), key=lambda s: s.basis
        )
        for kernel in kernels:
            complement = []
            for j in range(n):
                cand = 1 << j
                probe = GF2Subspace.from_vectors(
                    list(kernel.basis) + complement + [cand], n
                )
                if probe.dimension == k + len(complement) + 1:
                    complement.append(cand)
                if len(complement) == n - k:
                    break
            mixed = list(kernel.basis) + complement
            basis_matrix = GF2Matrix.from_columns(mixed, n)
            inv = solve(basis_matrix, GF2Matrix.identity(n))
            comp_rows = inv.rows[k:]
            for wtuple in enumerate_independent_tuples(kernel, n - k):
                cols = [0] * n
                for idx, w in enumerate(wtuple):
                    sel = comp_rows[idx]
                    while sel:
                        low = sel & -sel
                        cols[low.bit_length() - 1] ^= w
                        sel ^= low
                z = GF2Matrix.from_columns(cols, n)  # Y transposed
                masks = [z.rows[j] ^ (1 << j) for j in range(n)]
                carry = _carry_vector(masks)
                try:
                    particular, sign_kernel = solve_affine(z, carry)
                except ValueError:
                    raise RuntimeError(
                        "sign system inconsistent; no exact involution for "
                        f"unit block {masks}"
                    )
                for s in sorted(particular ^ x for x in sign_kernel.spanned()):
                    key = (tuple(masks), s)
                    if key in seen:
                        raise RuntimeError("duplicate involution emitted")
                    seen.add(key)
                    sign_bits = [(s >> j) & 1 for j in range(n)]
                    matrix = unit_images_matrix(n, masks, sign_bits)
                    yield matrix, _action_from_unit_data(n, masks, sign_bits)
