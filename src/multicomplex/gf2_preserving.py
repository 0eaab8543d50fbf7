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
to 0, so ker(Y^T) = K.  Every GF(2) question is a linear map, tabulated at
every input by doubling.  The image tuples are the permutations of K's
sorted nonzero vectors whose table vanishes only at input 0, so they come
in lexicographic order.  Per unit block, the 2^k admissible sign vectors
are the inputs s with Y^T s = c, emitted in increasing order, so the
output order is deterministic.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .automorphism import Automorphism, _from_images
from .mc_core import _at_least

__all__ = [
    "GF2Matrix",
    "GF2Subspace",
    "solve",
    "enumerate_subspaces_containing_e",
    "enumerate_preserving_involutions",
    "unit_images_to_automorphism",
]

_MAX_WIDTH = 64


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _transpose(vectors: Sequence[int], width: int) -> list[int]:
    """The width rows of the bit matrix whose columns are the vectors; bits
    at or past width are ignored."""
    rows = [0] * width
    keep = (1 << width) - 1
    for c, v in enumerate(vectors):
        v &= keep
        while v:
            low = v & -v
            rows[low.bit_length() - 1] |= 1 << c
            v ^= low
    return rows


def _linear_table(columns: Sequence[int]) -> list[int]:
    """A GF(2) linear map at every input, by doubling: entry x is the XOR of
    columns[j] over the set bits j of x, for all x < 2^len(columns)."""
    table = [0]
    for column in columns:
        table += [u ^ column for u in table]
    return table


@dataclass(frozen=True, slots=True)
class GF2Matrix:
    """A matrix over GF(2) with bit-packed rows (bit j of row i = entry i,j)."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_rows", _at_least(self.n_rows, 0, "n_rows"))
        object.__setattr__(self, "n_cols", operator.index(self.n_cols))
        if not 0 <= self.n_cols <= _MAX_WIDTH:
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
        return cls(n_rows, len(columns), _transpose(columns, n_rows))

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


@dataclass(frozen=True, slots=True)
class GF2Subspace:
    """A subspace of GF(2)^width, spanned by any vectors and stored as its
    canonical RREF basis.

    The basis rows are sorted by pivot position (lowest set bit), and each
    pivot column contains a single 1, so equal subspaces compare equal.
    """

    width: int
    basis: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "width", _at_least(self.width, 0, "width"))
        vectors = list(self.basis)
        if any(v >> self.width for v in vectors):
            raise ValueError("vector bits beyond width")
        basis, _ = _rref(vectors, self.width)
        object.__setattr__(self, "basis", tuple(basis))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def spanned(self) -> Iterator[int]:
        """All 2^dim vectors of the subspace (combination order, not sorted)."""
        return iter(_linear_table(self.basis))

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
    if not 1 <= operator.index(k) <= operator.index(n):
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
    subspace, in increasing lexicographic order: the tuples none of whose
    nonzero combinations vanishes."""
    elems = sorted(v for v in space.spanned() if v)
    return (t for t in itertools.permutations(elems, count)
            if 0 not in _linear_table(t)[1:])


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

    Component u goes to t = lam u xor beta_s, with a sign affine in u.  The
    matrix lam and the sign's linear part depend on the masks alone, so one
    table of u -> lam u and the sign functional covers the whole unit block;
    scattering +-(u + 1) into slot lam u gives the inverse permutation.
    Since lam is linear, a sign vector moves only the index x read from the
    table and the sign's constant, bit 0 of s.

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
    scoef, sconst = _linear_value_form(masks[0] ^ 1)
    sbase = sconst ^ (0 if masks[0] & 1 else 1)
    # entry u: lam u in the low nbits, parity(scoef & u) in bit nbits
    lam_columns = _transpose(lam_rows, nbits)
    forward = _linear_table([column | ((scoef >> j) & 1) << nbits
                             for j, column in enumerate(lam_columns)])
    low = (1 << nbits) - 1
    row = [0] * (low + 1)
    for u, image in enumerate(forward):
        row[image & low] = -(u + 1) if (image >> nbits) ^ sbase else u + 1
    if 0 in row:
        raise RuntimeError(f"component table of unit block {list(masks)} "
                           "is not a permutation")
    return beta, [tuple(row), tuple([-v for v in row])]


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

    Raises TypeError when a sign or mask is not an integer, and ValueError
    when an image squares to +1 (even number of unit factors) or when the
    masks are linearly dependent over GF(2), in which case the induced map
    sends some elementary idempotent outside the elementary set and is no
    ring automorphism.
    """
    n = _at_least(n, 1, "n")
    if len(images) != n:
        raise ValueError(f"expected {n} images, got {len(images)}")
    masks = []
    signs = 0
    for k, (sign, mask) in enumerate(images):
        try:
            sign, mask = operator.index(sign), operator.index(mask)
        except TypeError:
            raise TypeError(f"image {k}: sign and mask must be integers, "
                            f"got {sign!r} and {mask!r}") from None
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
    if GF2Subspace(n, masks).dimension != n:
        raise ValueError(
            "image masks are linearly dependent over GF(2); the induced map "
            "collapses idempotent components and is not an automorphism"
        )
    beta, signed = _component_tables(n, masks)
    x = (beta ^ signs ^ (signs >> 1)) & ((1 << (n - 1)) - 1)
    row = signed[signs & 1]
    return _from_images(n, tuple([row[t ^ x] for t in range(len(row))]))


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
    them.  Column j < n of the (n+1) x (n+1) matrix is the image mask of
    i_(j+1) above its sign bit; column n is zero above the corner 1.

    Emission order is canonical: kernel dimension k ascending, kernels by
    canonical basis, image tuples lexicographically, then admissible sign
    vectors in increasing binary order.  Every emitted map composes with
    itself to the identity exactly, signs included.
    """
    n = _at_least(n, 1, "n")
    gathers = _xor_gathers(n - 1)
    low = (1 << (n - 1)) - 1
    for k in range((n + 1) // 2, n + 1):
        kernels = sorted(
            enumerate_subspaces_containing_e(n, k), key=lambda s: s.basis
        )
        for kernel in kernels:
            # greedily, each unit vector outside the span so far
            spanned, complement = set(kernel.spanned()), []
            for cand in (1 << j for j in range(n)):
                if cand not in spanned:
                    complement.append(cand)
                    spanned |= {v ^ cand for v in spanned}
            mixed = GF2Matrix.from_columns(list(kernel.basis) + complement, n)
            inv = solve(mixed, GF2Matrix.identity(n))
            # coords[i]: the coordinates of e_i along the complement
            coords = _transpose(inv.rows[k:], n)
            for wtuple in _independent_tuples(kernel, n - k):
                # Y^T sends complement[i] to wtuple[i] and the kernel to 0;
                # its columns are the rows of Y = M + I
                images = _linear_table(wtuple)
                yt_columns = [images[c] for c in coords]
                block = tuple([c ^ (1 << i) for i, c in enumerate(yt_columns)])
                masks = _transpose(block, n)
                carry = _carry_vector(masks)
                yt = _linear_table(yt_columns)
                # Y^T s = c: a coset of ker(Y^T) = kernel, in increasing order
                signs = [s for s in range(1 << n) if yt[s] == carry]
                if len(signs) != 1 << k:
                    raise RuntimeError("sign system inconsistent; no exact "
                                       f"involution for unit block {masks}")
                beta, signed = _component_tables(n, masks)
                # a map reads its block's signed table at t ^ x, in one gather
                for s in signs:
                    perm = gathers[(beta ^ s ^ (s >> 1)) & low](signed[s & 1])
                    yield (_from_rows(n + 1, block + (s | (1 << n),)),
                           _from_images(n, perm))
