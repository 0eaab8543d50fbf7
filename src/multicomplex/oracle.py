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
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# to_idempotent is unused here: perfbench's tests check that the tracer
# patches this module's binding of it
from .idempotent import IdempotentVector, from_idempotent, to_idempotent  # noqa: F401
from .mc_core import DyadicRational, MulticomplexNumber, unit_product
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
# 1 MB of int64 at n = 5, so that verify_special_sets holds a few blocks and
# never a whole family
_SQUARE_ROWS = 1 << 12
# bit m of _LOW_COLUMNS[p] is bit p of m, for the 64 values m of one word
_LOW_COLUMNS = (0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)


def _sign_columns(N: int):
    """The sign bits of all 2^N sign vectors on N symbols, bit-sliced: bit
    m of column p, 64 vectors to a uint64 word, is the sign bit of symbol p
    in sign vector m.  N rows of max(1, 2^N / 64) words; when N < 6 the
    bits past 2^N repeat the used ones."""
    import numpy as np

    words = max(1, (1 << N) >> 6)
    cols = np.empty((N, words), dtype=np.uint64)
    cols[:min(N, 6)] = np.array(_LOW_COLUMNS[:N], dtype=np.uint64)[:, None]
    # past bit 5 a symbol's sign bit is constant across a word: bit p - 6
    # of the word's index, spread to all 64 bits
    index = np.arange(words, dtype=np.int64)
    for p in range(6, N):
        cols[p] = (-((index >> (p - 6)) & 1)).view(np.uint64)
    return cols


def _permutation_chunks(N: int, rows: int):
    """Every permutation of range(N) once, in lexicographic order, as
    index arrays of at most rows rows: one array per prefix of length k,
    the least k with (N - k)! <= rows, its rows running through one table
    of the (N - k)! tails."""
    import numpy as np

    k = next(k for k in range(N + 1) if math.factorial(N - k) <= rows)
    tails = np.array(list(itertools.permutations(range(N - k))), dtype=np.intp)
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
    chunk, whose sign bits take at most _CHUNK_ELEMENTS words (8 MB) and
    whose index arrays at most as many entries.
    """
    import numpy as np

    cols = _sign_columns(N)
    words = cols.shape[1]
    used = np.uint64((1 << min(64, 1 << N)) - 1)
    ones_in_byte = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)
    identity = np.arange(N)
    kept = moved = 0
    for base in _permutation_chunks(N, max(1, _CHUNK_ELEMENTS // (N * words))):
        # row i of base starts at flat index i * N
        starts = np.arange(0, base.size, N)[:, None]
        power = np.broadcast_to(identity, base.shape)
        for _ in range(r):
            power = base.take(starts + power)
        base = base[(power == identity).all(axis=1)]
        starts = starts[:len(base)]
        bits = np.zeros((len(base), N, words), dtype=np.uint64)
        power = np.broadcast_to(identity, base.shape)
        for _ in range(r):
            bits ^= cols[power]
            power = base.take(starts + power)
        off = np.bitwise_or.reduce(bits, axis=1) & used
        kept += len(base)
        moved += int(ones_in_byte[off.view(np.uint8)].sum())
    return (kept << N) - moved


def brute_count_r_involutions(n: int, r: int) -> int:
    """Count automorphisms f of MC(n) with f^r = identity by exhausting the
    signed-permutation group, no formulas involved."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    return _signed_power_count(1 << (n - 1), r)


def brute_count_signed_involutions(N: int) -> int:
    """Count signed permutations on N symbols squaring to the identity by
    exhaustive composition."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return _signed_power_count(N, 2)


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


def brute_count_preserving(n: int) -> int:
    """Count the involutions of MC(n) that send every generator to a signed
    canonical unit, by walking all (2^n)^n tuples of generator images; no
    kernels, complements or carry vectors involved.  n is at most 4
    (65,536 tuples)."""
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    return sum(1 for _ in _brute_preserving(n))


# ---------------------------------------------------------------------------
# homomorphism verification


def _convolve(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """The product of two coefficient rows by the direct convolution
    e_a e_b = (-1)^popcount(a & b) e_(a xor b), in O(4^n) integer steps: the
    reference the product through the idempotent transform is checked
    against.  Rows over 2^s and 2^t give their product over 2^(s + t)."""
    out = [0] * len(x)
    right = [(b, cb) for b, cb in enumerate(y) if cb]
    for a, ca in enumerate(x):
        if ca:
            for b, cb in right:
                if (a & b).bit_count() & 1:
                    out[a ^ b] -= ca * cb
                else:
                    out[a ^ b] += ca * cb
    return out


def _matches(x: MulticomplexNumber, row: list[int], exp: int) -> bool:
    """Whether x is the element row / 2^exp.  x is in lowest terms, so it
    is not when its exponent is the larger."""
    shift = exp - x.exp
    return shift >= 0 and [c << shift for c in x.nums] == row


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
    """The inputs verify_homomorphism applies a map on MC(n) to, built once
    per order, as (units, negatives, sums, scaled): the canonical units by
    mask, their negatives, sums[a][b] = units[a] + units[b] (one object for
    both orders of a pair) and scaled[a][i] = units[a] scaled by
    _SCALARS[i].  They are frozen values, so every map shares them."""
    width = 1 << n
    units = tuple(MulticomplexNumber.unit(m, n) for m in range(width))
    sums = [[None] * width for _ in range(width)]
    for a in range(width):
        for b in range(a, width):
            sums[a][b] = sums[b][a] = units[a] + units[b]
    return (units, tuple(-u for u in units), tuple(map(tuple, sums)),
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
    calls per map, 67 at n = 3 and 199 at n = 4.  The inputs themselves,
    units, negated units, sums of two units and scaled units, depend on n
    alone and are built once per order (_law_inputs).  A product of units
    is a signed unit, whose image is a unit image or, for the minus sign,
    one memoised apply per mask; a sum's image is memoised on the unordered
    pair.  The right sides are integer rows over one power of two, each
    product of unit images convolved once per unordered pair, and each
    scaling one row times the scalar's numerator; an element is built from
    a row only for a witness.  The checks run in the same (a, b) order as
    a loop that applies f to every left side, and stop at the same first
    failure.
    """
    n = f.order_n
    apply = f.apply
    units, negatives, unit_sums, scaled = _law_inputs(n)
    images = [apply(u) for u in units]
    top = max(x.exp for x in images)
    rows = [[c << (top - x.exp) for c in x.nums] for x in images]
    negated: dict[int, MulticomplexNumber] = {}
    sums: dict[tuple[int, int], MulticomplexNumber] = {}
    products: dict[tuple[int, int], list[int]] = {}
    checks = 0

    for a, ua in enumerate(units):
        for b, ub in enumerate(units):
            pair = (a, b) if a <= b else (b, a)
            sign, m = unit_product(a, b)
            if sign > 0:
                lhs = images[m]
            elif m in negated:
                lhs = negated[m]
            else:
                lhs = negated[m] = apply(negatives[m])
            if pair in products:
                rhs = products[pair]
            else:
                rhs = products[pair] = _convolve(rows[a], rows[b])
            checks += 1
            if not _matches(lhs, rhs, 2 * top):
                return VerificationReport(False, checks, _witness(
                    "multiplicative", [ua, ub], lhs,
                    MulticomplexNumber(n, rhs, 2 * top)))
            if pair in sums:
                lhs = sums[pair]
            else:
                lhs = sums[pair] = apply(unit_sums[a][b])
            rhs = [x + y for x, y in zip(rows[a], rows[b])]
            checks += 1
            if not _matches(lhs, rhs, top):
                return VerificationReport(False, checks, _witness(
                    "additive", [ua, ub], lhs, MulticomplexNumber(n, rhs, top)))
        for lam, scaled_unit in zip(_SCALARS, scaled[a]):
            lhs = apply(scaled_unit)
            checks += 1
            if not _matches(lhs, [c * lam.num for c in rows[a]], top + lam.exp):
                return VerificationReport(False, checks, _witness(
                    f"real-scaling by {lam}", [ua], lhs, images[a].scale(lam)))
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


def _vectorized_square(C, n: int, out):
    """Row-wise square of scaled coefficient vectors, by the direct
    convolution e_a e_b = (-1)^popcount(a & b) e_(a xor b).

    Each unit pair costs one product and one accumulation over a whole
    coefficient column, so the work runs on a column-contiguous copy of C
    into out, a C-ordered int64 array of C's transposed shape that the
    caller may reuse.  The rows of the result, out.T, are C's rows squared.
    """
    import numpy as np

    width = 1 << n
    cols = np.ascontiguousarray(C.T)
    out.fill(0)
    term = np.empty_like(cols[0])

    def accumulate(sign: int, m: int) -> None:
        if sign > 0:
            np.add(out[m], term, out=out[m])
        else:
            np.subtract(out[m], term, out=out[m])

    for a in range(width):
        for b in range(a + 1, width):
            np.multiply(cols[a], cols[b], out=term)
            accumulate(*unit_product(a, b))
    out *= 2  # each cross pair a < b stands for ab and ba
    for a in range(width):
        np.multiply(cols[a], cols[a], out=term)
        accumulate(*unit_product(a, a))
    return out.T


# weights of the row hash in _row_hashes, one per coefficient of MC(5):
# the powers of an odd 64-bit constant, 2^64 / golden ratio, so all odd
_HASH_WEIGHTS = tuple(pow(0x9E3779B97F4A7C15, k + 1, 1 << 64) for k in range(32))


def _row_hashes(cols):
    """One uint64 per row of a column-major int64 block (a column per row):
    its dot product with _HASH_WEIGHTS, wrapping modulo 2^64."""
    import numpy as np

    weights = np.array(_HASH_WEIGHTS[:cols.shape[0]], dtype=np.uint64)
    return weights @ cols.view(np.uint64)


def _distinct_rows(hashes, row) -> bool:
    """Whether the rows of a family are pairwise distinct, given the
    _row_hashes of all of them and row(p), which rebuilds row p.

    The hashes are sorted.  Equal rows have equal hashes, and each group of
    equal hashes is rebuilt by pattern index and every pair in it compared
    exactly, so a collision costs time but never the answer.
    """
    import numpy as np

    order = np.argsort(hashes)
    hashes = hashes[order]
    bounds = np.flatnonzero(np.concatenate(
        ([True], hashes[1:] != hashes[:-1], [True])))
    shared = np.diff(bounds) > 1
    for start, stop in zip(bounds[:-1][shared], bounds[1:][shared]):
        group = np.array([row(int(p)) for p in order[start:stop]])
        for i in range(len(group) - 1):
            if (group[i + 1:] == group[i]).all(axis=1).any():
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
    partial sum of a square exceeds 2^n bound^2: OverflowError unless that
    is below 2^63, where int64 would wrap.
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
        if width * bound * bound >= 1 << 63:
            raise OverflowError(
                f"int64 squares of the {kind.value} family could wrap")
        low = np.empty((width, 1 << low_bits), dtype=np.int64)
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
    offset = high[bits == 1].sum(axis=0)
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

    if not 1 <= n <= 5:
        raise ValueError("n must be between 1 and 5")
    width = 1 << n
    scale = 1 << (n - 1)
    count = 1 << (1 << (n - 1))
    # at n = 5 a whole family would be 16 MB; a block is 1 MB, a source's
    # table 1 MB and the hashes of one family 0.5 MB
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
    # Every block goes into a reused buffer: a fresh 1 MB array costs more
    # in first-touch page faults than the arithmetic on it
    cols, square_cols = np.empty((2, width, size), dtype=np.int64)
    hashes = np.empty(count, dtype=np.uint64)
    for kind in sources:
        target = None
        if kind is not SpecialSetKind.IDEMPOTENT:
            target = np.zeros(width, dtype=np.int64)
            target[0] = scale * scale
            if kind is SpecialSetKind.SQUARE_MINUS_ONE:
                target[0] = -target[0]
        for start in starts:
            _family_block(sources[kind], start, size, out=cols)
            squares = _vectorized_square(cols.T, n, square_cols)
            expected = scale * cols.T if target is None else target
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
                "square": str(
                    MulticomplexNumber(n, squares[idx].tolist(), 2 * n - 2)
                ),
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
    signs = np.empty((width, 1), dtype=np.int64)
    for m in range(width):
        sign, mm = unit_product(1, m)
        source[mm], signs[mm] = m, sign
    h, other, work = cols, square_cols, np.empty_like(cols)
    i1_times = dyadic = halves = True
    for start in starts:
        _family_block(sources[SpecialSetKind.SQUARE_ONE], start, size, out=h)
        _family_block(sources[SpecialSetKind.SQUARE_MINUS_ONE], start, size,
                      out=other)
        np.multiply(np.take(h, source, axis=0, out=work), signs, out=work)
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
