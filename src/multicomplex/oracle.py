"""Brute-force validators, independent of every closed-form count.

The counting module trusts formulas; this module trusts nothing.  It walks
entire signed-permutation groups element by element, literally composes
maps, multiplies by the direct O(4^n) convolution instead of the
idempotent transform, and grinds through special sets with exact
scaled-integer arithmetic, so that agreement between the two routes is
meaningful evidence.  It holds the checks only: the corrupted maps and
bases that show each check can fail are test doubles in the test suite.
numpy is imported inside the functions that use it, so that importing the
package does not load it.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# to_idempotent is unused here: perfbench's tests check that the tracer
# patches this module's binding of it
from .idempotent import IdempotentVector, from_idempotent, to_idempotent  # noqa: F401
from .mc_core import (DyadicRational, MulticomplexNumber, _at_least,
                      _n_components, unit_product)
from .special_elements import SpecialSetKind, special_element_for_pattern

__all__ = [
    "VerificationReport",
    "brute_count_preserving",
    "brute_count_r_involutions",
    "brute_count_signed_involutions",
    "verify_homomorphism",
    "verify_special_sets",
]


# eq=False: reports compare and hash by identity, as the failure is a dict
@dataclass(frozen=True, slots=True, eq=False)
class VerificationReport:
    """Outcome of a verification run: a pass flag, a check count, and the
    first violated identity with witnesses (when any)."""

    ok: bool
    checks: int
    failure: dict | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        out = {"ok": self.ok, "checks": self.checks}
        if self.failure is not None:
            out["failure"] = self.failure
        return out

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"FAILED: {self.failure}"
        return f"VerificationReport({self.checks} checks, {status})"


# 64-bit words of one chunk's sign-bit array: bounds memory for any N
_CHUNK_ELEMENTS = 1 << 20
# rows of a special family generated and squared at once, a power of two:
# 512 KB of int32 at n = 5, so that verify_special_sets holds a few blocks
# and never a whole family
_SQUARE_ROWS = 1 << 12


def _sign_columns(N: int):
    """The sign bits of all 2^N sign vectors on N symbols, bit-sliced: bit
    m of column p, 64 vectors to a uint64 word, is the sign bit of symbol p
    in sign vector m.  N rows of max(1, 2^N / 64) words; when N < 6 the
    bits past 2^N are 0, so they never count as a sign vector."""
    import numpy as np

    m = np.arange(max(64, 1 << N), dtype=np.intp)
    bits = (m < 1 << N) & (m >> np.arange(N, dtype=np.intp)[:, None]) & 1
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _permutation_chunks(N: int, rows: int):
    """Every permutation of range(N) once, in lexicographic order, as
    index arrays of at most rows rows: one array per prefix of length k,
    the least k with (N - k)! <= rows, its rows running through one table
    of the (N - k)! tails."""
    import numpy as np

    k = next(k for k in range(N + 1) if math.factorial(N - k) <= rows)
    # the tails of m symbols from f: f, then those of m - 1 with s >= f moved up
    tails = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, N - k + 1):
        first = np.arange(m, dtype=np.intp)[:, None, None]
        grown = np.empty((m, len(tails), m), dtype=np.intp)
        grown[:, :, :1] = first
        np.add(tails, tails >= first, out=grown[:, :, 1:])
        tails = grown.reshape(-1, m)
    for prefix in itertools.permutations(range(N), k):
        rest = np.array([s for s in range(N) if s not in prefix], dtype=np.intp)
        chunk = np.empty((len(tails), N), dtype=np.intp)
        chunk[:, :k] = prefix
        chunk[:, k:] = rest[tails]
        yield chunk


def _signed_power_count(N: int, r: int) -> int:
    """Literally compose every signed permutation on N symbols with itself
    r times and count the identities.  The walk is exhaustive by design,
    N! unsigned permutations times r compositions, so the caller bounds N
    and r.

    Unsigned permutations are taken in chunks (_permutation_chunks) and
    composed as rows of an index array: sigma^(t+1) = sigma o sigma^t by
    one gather.  For those with sigma^r = identity, the walk
    sigma^0..sigma^(r-1) is composed again.  The sign of the r-fold
    composite at position j is the product of the sign choices along
    sigma^0(j)..sigma^(r-1)(j).  It is evaluated for all 2^N sign vectors
    at once as bits, by XOR of the sign-bit columns (_sign_columns) along
    that walk.  OR over j leaves a bit set for each sign vector whose
    composite is not the identity, and the zero bits are counted.

    Memory, for any r: the columns, N max(1, 2^N / 64) words, and one
    chunk, whose sign bits and their gather buffer take _CHUNK_ELEMENTS
    words (8 MB) each at most, and its index arrays as many entries.
    """
    import numpy as np

    cols = _sign_columns(N)
    words = cols.shape[1]
    identity = np.arange(N, dtype=np.intp)
    kept = moved = 0
    for base in _permutation_chunks(N, max(1, _CHUNK_ELEMENTS // (N * words))):
        # base[i, power[i, j]] is at flat index starts[i] + power[i, j]; the
        # gathers write into reused buffers, unbuffered out of "raise" mode
        starts = np.arange(0, base.size, N, dtype=np.intp)[:, None]
        power, index = np.empty((2, *base.shape), dtype=np.intp)
        power[:] = identity
        for _ in range(r):
            base.take(np.add(starts, power, out=index), out=power, mode="wrap")
        base = base[(power == identity).all(axis=1)]
        starts, power, index = starts[:len(base)], power[:len(base)], index[:len(base)]
        bits, gathered = np.zeros((2, len(base), N, words), dtype=np.uint64)
        power[:] = identity
        for _ in range(r):
            bits ^= np.take(cols, power, axis=0, out=gathered, mode="wrap")
            base.take(np.add(starts, power, out=index), out=power, mode="wrap")
        off = np.bitwise_or.reduce(bits, axis=1)
        kept += len(base)
        moved += int(np.count_nonzero(np.unpackbits(off.view(np.uint8))))
    return (kept << N) - moved


def brute_count_r_involutions(n: int, r: int) -> int:
    """Count automorphisms f of MC(n) with f^r = identity by exhausting the
    signed-permutation group, no formulas involved."""
    return _signed_power_count(_n_components(n), _at_least(r, 1, "r"))


def brute_count_signed_involutions(N: int) -> int:
    """Count signed permutations on N symbols squaring to the identity by
    exhaustive composition."""
    return _signed_power_count(_at_least(N, 1, "N"), 2)


def _independent(masks: Iterable[int]) -> bool:
    """Whether the masks are linearly independent over GF(2), by elimination
    on the highest set bit."""
    pivots: dict[int, int] = {}
    for v in masks:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            return False
    return True


def _unit_image(images: Sequence[tuple[int, int]], mask: int) -> tuple[int, int]:
    """f(unit with mask) as (sign, mask), for the map sending i_(j+1) to the
    signed unit images[j]: the product of the images of its factors."""
    sign, acc = 1, 0
    for j, (s_j, m_j) in enumerate(images):
        if (mask >> j) & 1:
            p, acc = unit_product(acc, m_j)
            sign *= p * s_j
    return sign, acc


def _brute_preserving(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(masks, sign_bits) of every involution of MC(n) sending each
    generator i_(k+1) to (-1)^(sign_bits[k]) times the unit with mask
    masks[k].

    Walks every n-tuple of signed odd-weight units, keeps those whose masks
    are independent over GF(2) (so that the tuple defines an automorphism)
    and tests f(f(i_k)) = i_k for every k by multiplying units.  The test
    alone would also reject every dependent tuple, since it makes the mask
    matrix square to the identity; checking independence first skips most
    of the walk.
    """
    odd = [m for m in range(1 << n) if m.bit_count() % 2]
    for masks in itertools.product(odd, repeat=n):
        if not _independent(masks):
            continue
        for sign_bits in itertools.product((0, 1), repeat=n):
            images = [(-1 if s else 1, m) for s, m in zip(sign_bits, masks)]
            if all(
                _unit_image(images, m) == (-1 if s else 1, 1 << k)
                for k, (s, m) in enumerate(zip(sign_bits, masks))
            ):
                yield masks, sign_bits


# brute_count_preserving walks (2^n)^n tuples: 65,536 at n = 4
_BRUTE_PRESERVING_MAX_N = 4


def brute_count_preserving(n: int) -> int:
    """Count the involutions of MC(n) that send every generator to a signed
    canonical unit, by walking all (2^n)^n tuples of generator images; no
    kernels, complements or carry vectors involved.  n is at most
    _BRUTE_PRESERVING_MAX_N."""
    if not 1 <= operator.index(n) <= _BRUTE_PRESERVING_MAX_N:
        raise ValueError(f"n must be between 1 and {_BRUTE_PRESERVING_MAX_N}")
    return sum(1 for _ in _brute_preserving(n))


# ---------------------------------------------------------------------------
# homomorphism verification


def _terms(row: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero entries of a coefficient row, as (mask, coefficient)."""
    return [(m, c) for m, c in enumerate(row) if c]


def _convolve_terms(x: Sequence[tuple[int, int]], y: Sequence[tuple[int, int]],
                    width: int) -> list[int]:
    """The product of two elements given by their nonzero terms (_terms),
    as a row of width entries, by the direct convolution
    e_a e_b = (-1)^popcount(a & b) e_(a xor b): the reference the product
    through the idempotent transform is checked against.  Terms over 2^s
    and 2^t give their product over 2^(s + t)."""
    out = [0] * width
    for a, ca in x:
        for b, cb in y:
            if (a & b).bit_count() & 1:
                out[a ^ b] -= ca * cb
            else:
                out[a ^ b] += ca * cb
    return out


def _row_at(x: MulticomplexNumber, exp: int) -> list[int] | None:
    """The coefficients of x as integers over 2^exp, or None when exp is
    below x's exponent: x is in lowest terms, so it is then no such row."""
    shift = exp - x.exp
    if shift > 0:
        return [c << shift for c in x.nums]
    return list(x.nums) if shift == 0 else None


def _witness(law: str, inputs: Sequence[MulticomplexNumber],
             lhs: MulticomplexNumber, rhs: MulticomplexNumber) -> dict:
    return {
        "law": law,
        "inputs": [str(x) for x in inputs],
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


# the real scalars of the scaling law: 3/2 and -2
_SCALARS = (DyadicRational(3, 1), DyadicRational(-2, 0))


@functools.lru_cache(maxsize=4)
def _law_inputs(n: int) -> tuple:
    """The inputs verify_homomorphism applies a map on MC(n) to, and its
    walk over the unordered pairs of units, built once per order, as
    (units, negatives, pairs, scaled): the canonical units by mask, their
    negatives, pairs[a] holding (b, side, units[a] + units[b]) for
    b = a..2^n - 1, where e_a e_b is +e_m for side m and -e_m for side
    2^n + m, and scaled[a][i] = units[a] scaled by _SCALARS[i].  They are
    frozen values, so every map shares them."""
    width = 1 << n
    units = tuple(MulticomplexNumber.unit(m, n) for m in range(width))
    pairs = tuple(
        tuple((b, (a ^ b) + (width if (a & b).bit_count() & 1 else 0),
               units[a] + units[b]) for b in range(a, width))
        for a in range(width))
    return (units, tuple(-u for u in units), pairs,
            tuple(tuple(u.scale(lam) for lam in _SCALARS) for u in units))


def verify_homomorphism(f) -> VerificationReport:
    """Check ring-homomorphism laws for a map on MC(n), exactly.

    Multiplicativity and additivity are checked on every pair of canonical
    units, and real scaling on every unit; by linearity that covers every
    element.  Every product is taken by the direct convolution, not by the
    ring's transform-based product, which f.apply shares its transform
    with.  f may be an Automorphism or any object with order_n and apply().

    f.apply is called once per distinct input, a memo that assumes apply is
    a function of its input: 2^n + (2^n - 1) + 2^(n-1) (2^n + 1) + 2^(n+1)
    calls per map, 67 at n = 3 and 199 at n = 4.  The inputs, and the walk
    over the unordered pairs of units, depend on n alone and are built once
    per order (_law_inputs).

    Both sides are compared as integer rows; an element is built from a row
    only for a witness.  Each product of unit images is convolved once per
    unordered pair, from the images' nonzero terms.  A product of units is
    a signed unit, so the at most 2^(n+1) - 1 multiplicative left sides (a
    unit image, or one apply per mask for a minus sign) are each made a
    row once.  The check of (a, b), a > b, compares the same sides as that
    of (b, a), which came earlier and passed, so it is counted, not made
    again.  The counts, the apply calls and the first failure are those of
    a loop that applies f to every left side in (a, b) order.
    """
    n = f.order_n
    apply = f.apply
    units, negatives, unit_pairs, scaled = _law_inputs(n)
    width = len(units)
    images = [apply(u) for u in units]
    top = max(x.exp for x in images)
    rows = [_row_at(x, top) for x in images]
    terms = [_terms(row) for row in rows]
    # the multiplicative left sides by side, each with its row over
    # 2^(2 top): -e_m is applied when a product first needs it
    sides = images + [None] * width
    side_rows = [[c << top for c in row] for row in rows] + [None] * width
    add = operator.add
    checks = 0

    for a, pairs in enumerate(unit_pairs):
        checks += 2 * a  # the pairs (a, b), b < a
        row_a, terms_a = rows[a], terms[a]
        for b, side, unit_sum in pairs:
            lhs = sides[side]
            if lhs is None:
                lhs = sides[side] = apply(negatives[side - width])
                side_rows[side] = _row_at(lhs, 2 * top)
            rhs = _convolve_terms(terms_a, terms[b], width)
            checks += 1
            if side_rows[side] != rhs:
                return VerificationReport(False, checks, _witness(
                    "multiplicative", [units[a], units[b]], lhs,
                    MulticomplexNumber(n, rhs, 2 * top)))
            lhs = apply(unit_sum)
            rhs = list(map(add, row_a, rows[b]))
            checks += 1
            if _row_at(lhs, top) != rhs:
                return VerificationReport(False, checks, _witness(
                    "additive", [units[a], units[b]], lhs,
                    MulticomplexNumber(n, rhs, top)))
        for lam, scaled_unit in zip(_SCALARS, scaled[a]):
            lhs = apply(scaled_unit)
            checks += 1
            if _row_at(lhs, top + lam.exp) != [c * lam.num for c in row_a]:
                return VerificationReport(False, checks, _witness(
                    f"real-scaling by {lam}", [units[a]], lhs,
                    images[a].scale(lam)))
    return VerificationReport(True, checks)


# ---------------------------------------------------------------------------
# special-set verification


def _component_basis_rows(n: int):
    """Coefficient vectors times 2^(n-1) of the elementary idempotents
    (part 0) and of their i1-multiples (part 1), one row per component
    index, via the library transform."""
    import numpy as np

    rows = np.zeros((2, 1 << (n - 1), 1 << n), dtype=np.int64)
    for index in range(rows.shape[1] * 2):
        nums = [0] * (1 << n)
        nums[index] = 1
        x = from_idempotent(IdempotentVector(n, nums))
        rows[index % 2, index // 2] = [a << (n - 1 - x.exp) for a in x.nums]
    return rows[0], rows[1]


@functools.lru_cache(maxsize=4)
def _square_plan(n: int) -> tuple:
    """The pairs of units of MC(n) that a square sums over, built once per
    order, as (cross, diagonal): the pairs a < b and the pairs a = b.  Each
    is split by the sign of e_a e_b = +-e_m into (plus, minus), two tuples
    of (a, b, m)."""
    width = 1 << n
    cross, diagonal = ([], []), ([], [])
    for a in range(width):
        for b in range(a, width):
            sign, m = unit_product(a, b)
            (diagonal if a == b else cross)[sign < 0].append((a, b, m))
    return tuple((tuple(plus), tuple(minus)) for plus, minus in (cross, diagonal))


def _vectorized_square(C, n: int, out):
    """Row-wise square of scaled coefficient vectors, by the direct
    convolution e_a e_b = (-1)^popcount(a & b) e_(a xor b).

    Each unit pair costs one product and one accumulation over a whole
    coefficient column, so the work runs on a column-contiguous copy of C
    into out, a C-ordered array of C's transposed shape and of the dtype
    the squares fit in, that the caller may reuse.  Its rows, out.T, are
    C's rows squared.
    """
    import numpy as np

    cols = list(np.ascontiguousarray(C.T, dtype=out.dtype))
    acc = list(out)
    out.fill(0)
    term = np.empty(len(C), dtype=out.dtype)
    multiply = np.multiply
    cross, diagonal = _square_plan(n)
    for plan in (cross, diagonal):
        for pairs, accumulate in zip(plan, (np.add, np.subtract)):
            for a, b, m in pairs:
                multiply(cols[a], cols[b], out=term)
                accumulate(acc[m], term, out=acc[m])
        if plan is cross:
            out *= 2  # each cross pair a < b stands for ab and ba
    return out.T


# weights of the row hash in _row_hashes, one per coefficient of MC(5):
# the powers of an odd 64-bit constant, 2^64 / golden ratio, so all odd
_HASH_WEIGHTS = tuple(pow(0x9E3779B97F4A7C15, k + 1, 1 << 64) for k in range(32))


def _row_hashes(cols):
    """One uint64 per row of a column-major integer block (a column per
    row): its dot product with _HASH_WEIGHTS, all taken modulo 2^64."""
    import numpy as np

    weights = np.array(_HASH_WEIGHTS[:cols.shape[0]], dtype=np.uint64)
    return np.matmul(weights, cols, dtype=np.uint64, casting="unsafe")


def _distinct_rows(hashes, row) -> bool:
    """Whether the rows of a family are pairwise distinct, given the
    _row_hashes of all of them and row(p), which rebuilds row p.

    The hashes are sorted.  Equal rows have equal hashes, and each group of
    equal hashes is rebuilt by pattern index and its rows compared exactly,
    so a collision costs time but never the answer.
    """
    import numpy as np

    order = np.argsort(hashes)
    hashes = hashes[order]
    bounds = np.flatnonzero(np.concatenate(
        ([True], hashes[1:] != hashes[:-1], [True])))
    shared = np.diff(bounds) > 1
    for start, stop in zip(bounds[:-1][shared], bounds[1:][shared]):
        group = np.array([row(int(p)) for p in order[start:stop]])
        if len(np.unique(group, axis=0)) < len(group):
            return False
    return True


def _family_sources(n: int) -> dict:
    """The three special families of MC(n) as block sources, by kind: row p
    of a family holds 2^(n-1) times the coefficients of the element of
    pattern p, and _family_block reads any aligned block of rows.

    Each family is a sum over the components j of a term that bit j of p
    switches: +-(i1-multiple of idempotent j) for the minus-one family,
    +-(idempotent j) for the one family, and idempotent j or 0 for the
    idempotents.  So row p + 2^j is row p plus that switch's step, for
    p < 2^j, from row 0, where every bit is 0.  A source is the table of
    the first _SQUARE_ROWS rows, built by that doubling and held
    column-major, and the steps of the pattern bits past the table.

    No entry exceeds bound = |row 0| + sum of |steps| in its column, so no
    partial sum of a square exceeds 2^n bound^2 (32 * 48^2 at n = 5):
    OverflowError unless that is below 2^31, where the int32 tables wrap.
    """
    import numpy as np

    width = 1 << n
    low_bits = min(1 << (n - 1), _SQUARE_ROWS.bit_length() - 1)
    re_rows, im_rows = _component_basis_rows(n)
    sources = {}
    for kind, base, steps in (
        (SpecialSetKind.SQUARE_MINUS_ONE, im_rows.sum(axis=0), -2 * im_rows),
        (SpecialSetKind.SQUARE_ONE, re_rows.sum(axis=0), -2 * re_rows),
        (SpecialSetKind.IDEMPOTENT, 0 * re_rows[0], re_rows),
    ):
        bound = int((np.abs(base) + np.abs(steps).sum(axis=0)).max())
        if width * bound * bound >= 1 << 31:
            raise OverflowError(
                f"int32 squares of the {kind.value} family could wrap")
        steps = steps.astype(np.int32)
        low = np.empty((width, 1 << low_bits), dtype=np.int32)
        low[:, 0] = base
        for j in range(low_bits):
            np.add(low[:, :1 << j], steps[j][:, None], out=low[:, 1 << j:2 << j])
        sources[kind] = low, steps[low_bits:]
    return sources


def _family_block(source, start: int, size: int, out=None):
    """Rows start .. start + size - 1 of a family source as a 2^n x size
    array, one column per row, written into out if given: table columns
    plus the steps of start's bits past the table.  size is a power of two
    no larger than the table, and start a multiple of it."""
    import numpy as np

    low, high = source
    bits = (start // low.shape[1]) >> np.arange(len(high)) & 1
    offset = high[bits == 1].sum(axis=0, dtype=high.dtype)
    first = start % low.shape[1]
    return np.add(low[:, first:first + size], offset[:, None], out=out)


def verify_special_sets(n: int) -> VerificationReport:
    """Exact verification of the three special families of MC(n).

    Checks, for each of the squares-to-minus-one, squares-to-one, and
    idempotent families: the defining equation for every element, the
    cardinality 2^(2^(n-1)), and the cross-identities (minus-one family =
    i1 times the one family; idempotents = (1 + one family)/2, row by row
    by pattern).  Works on scaled integer coefficient arrays, which it
    generates in aligned blocks of _SQUARE_ROWS rows and never holds whole,
    so n = 5 stays fast and small; spot-checks rows against the literal
    library enumeration.  A row r stands for the element
    MulticomplexNumber(n, r, n - 1).
    """
    import numpy as np

    if not 1 <= operator.index(n) <= 5:
        raise ValueError("n must be between 1 and 5")
    width = 1 << n
    scale = 1 << (n - 1)
    count = 1 << (1 << (n - 1))
    # at n = 5 a whole family would be 8 MB; a block is 0.5 MB, a source's
    # table 0.5 MB and the hashes of one family 0.5 MB
    sources = _family_sources(n)
    size = min(count, _SQUARE_ROWS)
    starts = range(0, count, size)

    def row(kind, p):
        return _family_block(sources[kind], p, 1)[:, 0]

    checks = 0

    # spot-check the array construction against the literal enumeration
    probe_indices = sorted({0, 1, count - 1, count // 3, (2 * count) // 3})
    for kind in sources:
        literal = dict(_probe_special(kind, n, probe_indices))
        for idx in probe_indices:
            checks += 1
            element = MulticomplexNumber(n, row(kind, idx).tolist(), n - 1)
            if element != literal[idx]:
                return VerificationReport(False, checks, {
                    "law": "enumeration mismatch",
                    "kind": kind.value,
                    "index": idx,
                    "lhs": str(element),
                    "rhs": str(literal[idx]),
                })

    # one pass of blocks per family: the squares, and a hash per row.
    # Every block goes into a reused int32 buffer: a fresh 0.5 MB array
    # costs more in first-touch page faults than the arithmetic on it
    cols, square_cols, work = np.empty((3, width, size), dtype=np.int32)
    hashes = np.empty(count, dtype=np.uint64)
    target = np.zeros(width, dtype=np.int32)  # -1 or 1, scaled like a square
    for kind in sources:
        target[0] = (-1 if kind is SpecialSetKind.SQUARE_MINUS_ONE else 1) * scale * scale
        for start in starts:
            _family_block(sources[kind], start, size, out=cols)
            squares = _vectorized_square(cols.T, n, square_cols)
            expected = (np.multiply(cols, scale, out=work).T
                        if kind is SpecialSetKind.IDEMPOTENT else target)
            bad = np.flatnonzero((squares != expected).any(axis=1))
            if bad.size:
                break
            hashes[start:start + size] = _row_hashes(cols)
        checks += count
        if bad.size:
            idx = int(bad[0])
            return VerificationReport(False, checks, {
                "law": f"defining equation of {kind.value}",
                "element": str(MulticomplexNumber(n, cols[:, idx].tolist(), n - 1)),
                "square": str(MulticomplexNumber(n, squares[idx].tolist(), 2 * n - 2)),
            })
        checks += 1
        if not _distinct_rows(hashes, functools.partial(row, kind)):
            return VerificationReport(False, checks, {
                "law": f"cardinality of {kind.value}",
                "expected": count,
            })

    # one pass of blocks for the three cross-identities, reported in order.
    # minus-one family = i1 * (one family), pattern by pattern: i1 e_m is
    # sign e_mm, so row mm of the product is sign times row m of a block.
    # idempotents = (1 + one family) / 2; (1 + h)/2 for pattern p is the
    # idempotent of the complementary pattern, count - 1 - p, so the block
    # at start meets the idempotent block at count - start - size, reversed.
    source = np.empty(width, dtype=np.intp)
    signs = np.empty((width, 1), dtype=np.int32)
    for m in range(width):
        sign, mm = unit_product(1, m)
        source[mm], signs[mm] = m, sign
    h, other = cols, square_cols
    i1_times = dyadic = halves = True
    for start in starts:
        _family_block(sources[SpecialSetKind.SQUARE_ONE], start, size, out=h)
        _family_block(sources[SpecialSetKind.SQUARE_MINUS_ONE], start, size,
                      out=other)
        np.take(h, source, axis=0, out=work, mode="wrap")  # "raise" would buffer
        np.multiply(work, signs, out=work)
        if not np.array_equal(work, other):
            i1_times = False
            break
        h[0] += scale
        if np.bitwise_and(h, 1, out=work).any():
            dyadic = False
        elif halves:
            _family_block(sources[SpecialSetKind.IDEMPOTENT],
                          count - start - size, size, out=other)
            halves = np.array_equal(np.right_shift(h, 1, out=work), other[:, ::-1])

    checks += 1
    if not i1_times:
        return VerificationReport(False, checks, {
            "law": "minus-one family equals i1 times one family"
        })
    checks += 1
    if not dyadic:
        return VerificationReport(False, checks, {
            "law": "(1 + h)/2 stays dyadic at the family scale"
        })
    checks += 1
    if not halves:
        return VerificationReport(False, checks, {
            "law": "idempotent family equals (1 + one family)/2"
        })

    return VerificationReport(True, checks)


def _probe_special(kind, n: int, indices: Sequence[int]):
    """Literal library enumeration of a special family at chosen pattern
    indices only (the full generator is too slow at n = 5)."""
    for idx in indices:
        yield idx, special_element_for_pattern(kind, n, idx)
