"""Tests for the brute-force validators."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multicomplex import (
    Automorphism,
    DyadicRational,
    IdempotentVector,
    MulticomplexNumber,
    SignedPermutation,
    SpecialSetKind,
    VerificationReport,
    brute_count_preserving,
    brute_count_r_involutions,
    brute_count_signed_involutions,
    count_preserving,
    count_r_involutions,
    count_signed_involutions,
    count_signed_r_involutions,
    enumerate_automorphisms,
    enumerate_preserving_involutions,
    from_idempotent,
    oracle,
    to_idempotent,
    unit_product,
    verify_homomorphism,
    verify_special_sets,
)
from preserving_matrix import matrix_unit_data


@pytest.fixture(autouse=True)
def numpy_before_2(monkeypatch):
    """Every test here runs without np.bitwise_count, which numpy has only
    from 2.0: the oracle must work on numpy 1.24, the floor in
    pyproject.toml."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)


def loop_square(C, n):
    """Row-wise square by one strided column update per unit pair: the
    reference for oracle._vectorized_square."""
    width = 1 << n
    out = np.zeros_like(C)
    for a in range(width):
        ca = C[:, a]
        sign_aa, m = unit_product(a, a)
        out[:, m] += sign_aa * ca * ca
        for b in range(a + 1, width):
            sign, m = unit_product(a, b)
            out[:, m] += (2 * sign) * ca * C[:, b]
    return out


def loop_signed_power_count(N, r):
    """One permutation at a time, composed in Python: the reference for
    oracle._signed_power_count."""
    n_masks = 1 << N
    signs = np.ones((n_masks, N), dtype=np.int8)
    mask_values = np.arange(n_masks)
    for j in range(N):
        signs[:, j] = 1 - 2 * ((mask_values >> j) & 1)
    identity = tuple(range(N))
    total = 0
    for base in itertools.permutations(range(N)):
        powers = [identity]
        for _ in range(r - 1):
            prev = powers[-1]
            powers.append(tuple(base[p] for p in prev))
        final = tuple(base[p] for p in powers[-1])
        if final != identity:
            continue
        prod = np.ones((n_masks, N), dtype=np.int32)
        for table in powers:
            prod *= signs[:, table]
        total += int(np.count_nonzero((prod == 1).all(axis=1)))
    return total


def matmul_family_rows(n):
    """Each family as one int64 matmul of the 2^N pattern signs or bits
    against the component basis, narrowed to the int32 of the oracle's
    blocks: the reference for the family blocks of oracle._family_sources
    and oracle._family_block."""
    N = 1 << (n - 1)
    re_rows, im_rows = oracle._component_basis_rows(n)
    bits = ((np.arange(1 << N)[:, None] >> np.arange(N)) & 1).astype(np.int64)
    pm = 1 - 2 * bits
    families = {
        SpecialSetKind.SQUARE_MINUS_ONE: pm @ im_rows,
        SpecialSetKind.SQUARE_ONE: pm @ re_rows,
        SpecialSetKind.IDEMPOTENT: bits @ re_rows,
    }
    narrowed = {kind: rows.astype(np.int32) for kind, rows in families.items()}
    assert all(np.array_equal(narrowed[kind], rows) for kind, rows in families.items())
    return narrowed


def fresh_law_inputs(n):
    """The inputs of verify_homomorphism built afresh: the reference for
    the per-order cache oracle._law_inputs."""
    units = [MulticomplexNumber.unit(m, n) for m in range(1 << n)]
    return (units, [-u for u in units],
            [[ua + ub for ub in units] for ua in units],
            [[u.scale(DyadicRational(3, 1)), u.scale(-2)] for u in units])


class TestBruteCounts:
    def test_signed_involutions(self):
        assert [brute_count_signed_involutions(N) for N in (1, 2, 3, 4)] == [
            2, 6, 20, 76
        ]

    def test_signed_involutions_match_closed_form(self):
        for N in (1, 2, 3, 4):
            assert brute_count_signed_involutions(N) == count_signed_involutions(N)

    def test_involutions_of_order_three(self):
        assert brute_count_r_involutions(3, 2) == 76

    @pytest.mark.parametrize("r", list(range(1, 9)))
    def test_all_powers_at_order_two(self, r):
        assert brute_count_r_involutions(2, r) == count_r_involutions(2, r)

    def test_validation(self):
        with pytest.raises(ValueError):
            brute_count_r_involutions(0, 2)
        with pytest.raises(ValueError):
            brute_count_r_involutions(2, 0)
        with pytest.raises(ValueError):
            brute_count_signed_involutions(0)


class TestReplacedLoops:
    @given(st.integers(1, 5), st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
           st.booleans())
    def test_square_matches_loop(self, n, n_rows, seed, column_major):
        rows = np.random.default_rng(seed).integers(
            -1000, 1001, size=(n_rows, 1 << n), dtype=np.int64)
        if column_major:
            rows = np.asfortranarray(rows)
        # a reused buffer still holds the squares of the block before
        out = np.full((1 << n, n_rows), 7, dtype=np.int64)
        assert np.array_equal(oracle._vectorized_square(rows, n, out),
                              loop_square(rows, n))

    @given(st.integers(1, 5), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_int32_square_at_the_bound_matches_the_int64_loop(self, n, n_rows, seed):
        # entries up to the largest bound with width * bound^2 below 2^31.
        # Row 0 reaches width * bound^2 at a unit m: every pair a, a xor m
        # adds bound^2, and each cross term is doubled after the sum
        width = 1 << n
        bound = math.isqrt(((1 << 31) - 1) // width)
        rng = np.random.default_rng(seed)
        rows = rng.integers(-bound, bound + 1, size=(n_rows, width), dtype=np.int32)
        m = int(rng.integers(1, width))
        for a in range(width):
            if a < a ^ m:
                sign, _ = unit_product(a, a ^ m)
                rows[0, a], rows[0, a ^ m] = bound, sign * bound
        out = np.full((width, n_rows), 7, dtype=np.int32)
        squares = oracle._vectorized_square(rows, n, out)
        reference = loop_square(rows.astype(np.int64), n)
        assert squares.dtype == np.int32
        assert reference[0, m] == width * bound * bound < 1 << 31
        assert np.array_equal(squares, reference)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tables_and_block_buffers_are_int32(self, n, monkeypatch):
        for low, high in oracle._family_sources(n).values():
            assert low.dtype == high.dtype == np.int32
        family_block, square = oracle._family_block, oracle._vectorized_square
        buffers = []

        def block(source, start, size, out=None):
            buffers.append(out.dtype if out is not None else None)
            return family_block(source, start, size, out)

        def recorded_square(C, n, out):
            buffers.extend((C.dtype, out.dtype))
            return square(C, n, out)

        monkeypatch.setattr(oracle, "_family_block", block)
        monkeypatch.setattr(oracle, "_vectorized_square", recorded_square)
        assert verify_special_sets(n).ok
        # the single rows of the spot checks are read without a buffer
        assert set(buffers) == {None, np.dtype(np.int32)}

    # blocks of four rows take the pattern bits past the table from n = 3 on
    @pytest.mark.parametrize("block_rows", [4, 4096])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_family_blocks_match_the_matmul(self, n, block_rows, monkeypatch):
        monkeypatch.setattr(oracle, "_SQUARE_ROWS", block_rows)
        sources, reference = oracle._family_sources(n), matmul_family_rows(n)
        assert list(sources) == list(reference)
        count = 1 << (1 << (n - 1))
        size = min(count, block_rows)
        starts = range(0, count, size)
        for kind, rows in reference.items():
            blocks = [oracle._family_block(sources[kind], start, size)
                      for start in starts]
            assert all(b.dtype == rows.dtype for b in blocks)
            assert np.array_equal(np.concatenate(blocks, axis=1).T, rows)
            # single rows, as the spot checks and hash collisions read them
            for p in {0, 1, count // 3, count - 1}:
                row = oracle._family_block(sources[kind], p, 1)[:, 0]
                assert np.array_equal(row, rows[p])
        # the idempotent block that (1 + h)/2 of the block at start meets
        reverse = reference[SpecialSetKind.IDEMPOTENT][::-1]
        for start in starts:
            block = oracle._family_block(sources[SpecialSetKind.IDEMPOTENT],
                                         count - start - size, size)
            assert np.array_equal(block[:, ::-1].T, reverse[start:start + size])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_law_inputs_match_a_fresh_build(self, n):
        cached = oracle._law_inputs(n)
        assert oracle._law_inputs(n) is cached
        units, negatives, pairs, scaled = cached
        fresh_units, fresh_negatives, fresh_sums, fresh_scaled = fresh_law_inputs(n)
        assert list(units) == fresh_units
        assert list(negatives) == fresh_negatives
        assert [list(pair) for pair in scaled] == fresh_scaled
        # row a walks b = a.. with the side e_a e_b lands on and e_a + e_b
        width = 1 << n
        for a, row in enumerate(pairs):
            assert [b for b, _, _ in row] == list(range(a, width))
            for b, side, unit_sum in row:
                sign, m = unit_product(a, b)
                assert side == (m if sign > 0 else width + m)
                assert unit_sum == fresh_sums[a][b]

    # N <= 5 leaves part of the one word of sign vectors unused
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("r", range(1, 13))
    def test_signed_power_count_matches_loop(self, N, r):
        assert oracle._signed_power_count(N, r) == loop_signed_power_count(N, r)

    def test_signed_power_count_matches_loop_on_eight_symbols(self):
        assert oracle._signed_power_count(8, 2) == loop_signed_power_count(8, 2)

    @pytest.mark.parametrize("r", [3, 4, 6])
    def test_signed_power_count_on_eight_symbols(self, r):
        # four words of sign vectors per symbol
        assert oracle._signed_power_count(8, r) == count_signed_r_involutions(8, r)

    @pytest.mark.parametrize("N", [1, 5, 6, 7, 8])
    def test_sign_columns(self, N):
        cols = oracle._sign_columns(N)
        assert cols.shape == (N, max(1, (1 << N) // 64))
        for p in range(N):
            # bit m of the column, for every m past the first word too
            word_bits = [(int(w) >> b) & 1 for w in cols[p] for b in range(64)]
            assert all(word_bits[m] == (m >> p) & 1 for m in range(1 << N))

    def test_chunks_split_the_walk(self, monkeypatch):
        # chunks of a few permutations each still count every one of them:
        # 3 permutations' worth of words at N = 4 gives chunks of 2! tails
        monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", 3 * 4)
        assert [len(c) for c in oracle._permutation_chunks(4, 3)] == [2] * 12
        for r in (2, 3, 4):
            assert oracle._signed_power_count(4, r) == loop_signed_power_count(4, r)

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    @pytest.mark.parametrize("rows", [1, 2, 5, 6, 200])
    def test_permutation_chunks_walk_every_permutation_once(self, N, rows):
        chunks = list(oracle._permutation_chunks(N, rows))
        assert all(len(c) <= rows for c in chunks)
        walked = [tuple(int(v) for v in row) for c in chunks for row in c]
        assert walked == list(itertools.permutations(range(N)))


class TestBrutePreserving:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_closed_form(self, n):
        assert brute_count_preserving(n) == count_preserving(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_same_maps_as_the_generator(self, n):
        generated = {
            tuple(map(tuple, matrix_unit_data(matrix)))
            for matrix, _ in enumerate_preserving_involutions(n)
        }
        assert set(oracle._brute_preserving(n)) == generated

    def test_signless_products_find_other_maps(self, monkeypatch):
        # dropping the sign of the unit product keeps the n = 4 count but
        # not the set: the check must see the carries
        monkeypatch.setattr(oracle, "unit_product", lambda a, b: (1, a ^ b))
        generated = {
            tuple(map(tuple, matrix_unit_data(matrix)))
            for matrix, _ in enumerate_preserving_involutions(4)
        }
        found = set(oracle._brute_preserving(4))
        assert len(found) == len(generated)
        assert found != generated

    def test_validation(self):
        for n in (0, 5):
            with pytest.raises(ValueError):
                brute_count_preserving(n)


def convolve(x, y):
    """x * y by the direct convolution of their coefficient rows, in O(4^n)
    integer steps at most: the reference for the product through the
    idempotent transform."""
    row = oracle._convolve_terms(oracle._terms(x.nums), oracle._terms(y.nums),
                                 len(x.nums))
    return MulticomplexNumber(x.order, row, x.exp + y.exp)


def loop_verify_homomorphism(f):
    """One apply per left side and one convolution per product, pair by
    pair: the reference for oracle.verify_homomorphism."""
    n = f.order_n
    apply = f.apply
    units = [MulticomplexNumber.unit(m, n) for m in range(1 << n)]
    images = [apply(u) for u in units]
    scalars = [DyadicRational(3, 1), DyadicRational(-2, 0)]
    checks = 0

    for a, ua in enumerate(units):
        for b, ub in enumerate(units):
            lhs = apply(convolve(ua, ub))
            rhs = convolve(images[a], images[b])
            checks += 1
            if lhs != rhs:
                return VerificationReport(
                    False, checks, oracle._witness("multiplicative", [ua, ub], lhs, rhs)
                )
            lhs = apply(ua + ub)
            rhs = images[a] + images[b]
            checks += 1
            if lhs != rhs:
                return VerificationReport(
                    False, checks, oracle._witness("additive", [ua, ub], lhs, rhs)
                )
        for lam in scalars:
            lhs = apply(ua.scale(lam))
            rhs = images[a].scale(lam)
            checks += 1
            if lhs != rhs:
                return VerificationReport(
                    False, checks,
                    oracle._witness(f"real-scaling by {lam}", [ua], lhs, rhs),
                )
    return VerificationReport(True, checks)


class Recorded:
    """A map that records every input it is applied to."""

    def __init__(self, base):
        self.base = base
        self.order_n = base.order_n
        self.inputs = []

    def apply(self, eta):
        self.inputs.append(eta)
        return self.base.apply(eta)


class Perturbed:
    """Negative control for verify_homomorphism: a base automorphism with
    1/2^k added to its image of one input only."""

    def __init__(self, base, target, k):
        self.base = base
        self.target = target
        self.order_n = base.order_n
        self.offset = MulticomplexNumber.one(base.order_n).scale(DyadicRational(1, k))

    def apply(self, eta):
        image = self.base.apply(eta)
        return image + self.offset if eta == self.target else image


def automorphisms(n):
    return st.permutations(range(1, (1 << (n - 1)) + 1)).flatmap(
        lambda base: st.lists(st.booleans(), min_size=len(base), max_size=len(base)).map(
            lambda flips: Automorphism(n, SignedPermutation(
                [-v if flip else v for v, flip in zip(base, flips)]))))


@st.composite
def left_side_inputs(draw, n):
    """An input the check applies f to: a signed unit, a sum of two units,
    or a scaled unit."""
    width = 1 << n
    a, b = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
    ua, ub = MulticomplexNumber.unit(a, n), MulticomplexNumber.unit(b, n)
    return draw(st.sampled_from([
        ua, -ua, ua + ub, ua.scale(DyadicRational(3, 1)), ua.scale(-2),
    ]))


@st.composite
def larger_exponent_cases(draw):
    """(map, law): a map whose image of one input of the law has an
    exponent above the right side's, which is at most 2n - 2 for a product
    of unit images, n - 1 for a sum and n for a scaling."""
    n = draw(st.integers(1, 4))
    width = 1 << n
    a, b = draw(st.integers(0, width - 1)), draw(st.integers(0, width - 1))
    ua, ub = MulticomplexNumber.unit(a, n), MulticomplexNumber.unit(b, n)
    # the loop applies every negated unit but the all-ones one
    negated = -MulticomplexNumber.unit(a % (width - 1), n)
    law, target, exp = draw(st.sampled_from([
        ("multiplicative", negated, 2 * n - 2),
        ("additive", ua + ub, n - 1),
        ("real-scaling by 3/2", ua.scale(DyadicRational(3, 1)), n),
        ("real-scaling by -2", ua.scale(-2), n - 1),
    ]))
    return Perturbed(draw(automorphisms(n)), target,
                     exp + draw(st.integers(1, 3))), law


class CorruptedAction:
    """Negative control for verify_homomorphism: a linear map agreeing with
    a base automorphism except that the image of one elementary idempotent
    has its sign flipped, while the matching imaginary part transports
    normally.  Deliberately not multiplicative."""

    def __init__(self, base, component):
        self.base = base
        self.component = component
        self.order_n = base.order_n

    def apply(self, eta):
        vec = to_idempotent(self.base.apply(eta))
        nums = list(vec.nums)
        to = 2 * abs(self.base.perm.images[self.component]) - 2
        nums[to] = -nums[to]
        return from_idempotent(IdempotentVector(self.order_n, nums, vec.exp))


class TestVerifyHomomorphism:
    def test_identity_passes(self):
        report = verify_homomorphism(Automorphism.identity(3))
        assert report.ok
        assert bool(report)
        assert report.failure is None
        assert report.checks == 8 * 8 * 2 + 8 * 2

    def test_every_small_automorphism_passes(self):
        for f in enumerate_automorphisms(2):
            assert verify_homomorphism(f).ok

    def test_products_do_not_use_the_ring_product(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("verify_homomorphism used MulticomplexNumber.__mul__")

        monkeypatch.setattr(MulticomplexNumber, "__mul__", refuse)
        assert verify_homomorphism(Automorphism.identity(3)).ok

    def test_nontrivial_order_six_map_passes(self):
        f = Automorphism.from_text(3, "4,1,-3,2")
        assert verify_homomorphism(f).ok

    def test_corrupted_map_fails_multiplicativity(self):
        base = Automorphism.identity(2)
        bad = CorruptedAction(base, 0)
        report = verify_homomorphism(bad)
        assert not report.ok
        assert report.failure["law"] == "multiplicative"
        assert set(report.failure) == {"law", "inputs", "lhs", "rhs"}

    def test_corrupted_map_fails_for_every_base(self):
        for f in enumerate_automorphisms(2):
            bad = CorruptedAction(f, 1)
            assert not verify_homomorphism(bad).ok

    @staticmethod
    def assert_matches_the_loop(f):
        fast, reference = Recorded(f), Recorded(f)
        report = verify_homomorphism(fast)
        assert report.to_json_dict() == loop_verify_homomorphism(reference).to_json_dict()
        # one apply per distinct input, in the order the loop first makes it
        assert fast.inputs == list(dict.fromkeys(reference.inputs))
        return report, reference.inputs

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 4).flatmap(automorphisms))
    def test_matches_the_loop(self, f):
        report, _ = self.assert_matches_the_loop(f)
        assert report.ok

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        automorphisms(n), left_side_inputs(n), st.integers(0, 6))))
    def test_matches_the_loop_on_perturbed_maps(self, case):
        # the offset 1/2^k reaches left sides over a larger power of two
        # than the right sides as well as over the same one; the negated
        # all-ones unit is the one input drawn that the loop never applies
        report, inputs = self.assert_matches_the_loop(Perturbed(*case))
        assert report.ok is (case[1] not in inputs)

    @settings(deadline=None, max_examples=40)
    @given(larger_exponent_cases())
    def test_matches_the_loop_on_left_sides_over_larger_powers(self, case):
        f, law = case
        report, _ = self.assert_matches_the_loop(f)
        assert not report.ok and report.failure["law"] == law

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_loop_on_every_corrupted_map(self, n):
        for base in enumerate_automorphisms(n):
            for component in range(1 << (n - 1)):
                bad = CorruptedAction(base, component)
                report = verify_homomorphism(bad)
                assert not report.ok
                assert report.to_json_dict() == \
                    loop_verify_homomorphism(bad).to_json_dict()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_apply_per_distinct_input(self, n):
        f = Recorded(Automorphism.from_text(n, ",".join(
            str(-j if j % 2 else j) for j in range(1 << (n - 1), 0, -1))))
        assert verify_homomorphism(f).ok
        width = 1 << n
        # unit images, negated units but the all-ones one, unordered pairs,
        # scalings
        expected = width + (width - 1) + width * (width + 1) // 2 + 2 * width
        assert len(f.inputs) == len(set(f.inputs)) == expected
        assert expected == {1: 10, 2: 25, 3: 67, 4: 199}[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_convolution_per_unordered_pair(self, n, monkeypatch):
        convolve, calls = oracle._convolve_terms, []

        def counted(x, y, width):
            calls.append((x, y))
            return convolve(x, y, width)

        monkeypatch.setattr(oracle, "_convolve_terms", counted)
        for f in (Automorphism.identity(n), Automorphism.from_text(
                n, ",".join(str(-j) for j in range(1 << (n - 1), 0, -1)))):
            calls.clear()
            assert verify_homomorphism(f).ok
            assert len(calls) == (1 << (n - 1)) * ((1 << n) + 1)

    def test_report_json(self):
        good = VerificationReport(True, 5)
        assert good.to_json_dict() == {"ok": True, "checks": 5}
        bad = VerificationReport(False, 3, {"law": "x"})
        assert bad.to_json_dict() == {
            "ok": False, "checks": 3, "failure": {"law": "x"}
        }


_basis_rows = oracle._component_basis_rows


def flipped_basis(n):
    """The component basis with the constant coefficient of the first
    elementary idempotent negated."""
    re_rows, im_rows = _basis_rows(n)
    re_rows = re_rows.copy()
    re_rows[0, 0] = -re_rows[0, 0]
    return re_rows, im_rows


def swapped_im_rows(n):
    """The component basis with the i1-multiples of the first two
    elementary idempotents exchanged: the minus-one family is the same set,
    but pattern p no longer holds i1 times the one family's pattern p."""
    re_rows, im_rows = _basis_rows(n)
    return re_rows, im_rows[[1, 0] + list(range(2, len(im_rows)))]


def probe_from_basis(kind, n, indices):
    """Family elements at the given pattern indices, built from whatever
    basis oracle._component_basis_rows gives."""
    re_rows, im_rows = oracle._component_basis_rows(n)
    for idx in indices:
        bits = (idx >> np.arange(1 << (n - 1))) & 1
        if kind is SpecialSetKind.IDEMPOTENT:
            row = bits @ re_rows
        else:
            rows = im_rows if kind is SpecialSetKind.SQUARE_MINUS_ONE else re_rows
            row = (1 - 2 * bits) @ rows
        yield idx, MulticomplexNumber(n, row.tolist(), n - 1)


def copied_patterns(monkeypatch, kind, copies):
    """Patches the oracle so that, in the family of one kind, each pattern p
    in copies holds the true row of pattern copies[p] in every block read."""
    family_sources, family_block = oracle._family_sources, oracle._family_block
    spoiled = []

    def sources(n):
        families = family_sources(n)
        spoiled.append(families[kind])
        return families

    def block(source, start, size, out=None):
        cols = family_block(source, start, size, out)
        if source is spoiled[-1]:
            rows = {p: family_block(source, q, 1)[:, 0]
                    for p, q in copies.items() if start <= p < start + size}
            for p, row in rows.items():
                cols[:, p - start] = row
        return cols

    monkeypatch.setattr(oracle, "_family_sources", sources)
    monkeypatch.setattr(oracle, "_family_block", block)


class TestVerifySpecialSets:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_families_verify(self, n):
        report = verify_special_sets(n)
        assert report.ok
        # at least one defining-equation check per element of each family
        assert report.checks >= 3 * (1 << (1 << (n - 1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_flipped_basis_entry_fails(self, n, monkeypatch):
        monkeypatch.setattr(oracle, "_component_basis_rows", flipped_basis)
        report = verify_special_sets(n)
        assert not report.ok
        assert report.failure["law"] == "enumeration mismatch"

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_flipped_basis_entry_fails_the_defining_equation(self, n, monkeypatch):
        # with the spot check fooled too, the squares must catch it
        monkeypatch.setattr(oracle, "_component_basis_rows", flipped_basis)
        monkeypatch.setattr(oracle, "_probe_special", probe_from_basis)
        report = verify_special_sets(n)
        assert not report.ok
        assert report.failure["law"] == "defining equation of one"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_swapped_components_fail_the_cross_identity(self, n, monkeypatch):
        # every family still has its defining equation and cardinality, and
        # the minus-one family is unchanged as a set
        monkeypatch.setattr(oracle, "_component_basis_rows", swapped_im_rows)
        monkeypatch.setattr(oracle, "_probe_special", probe_from_basis)
        report = verify_special_sets(n)
        assert not report.ok
        assert report.failure["law"] == "minus-one family equals i1 times one family"

    @pytest.mark.parametrize("block_rows", [4, 4096])
    def test_row_blocks_find_the_first_bad_square(self, monkeypatch, block_rows):
        # a wrong square of the one family's pattern 11 only, in the third
        # block of four rows or the first of 4,096
        n = 3
        re_rows, _ = _basis_rows(n)
        bad_row = (1 - 2 * ((11 >> np.arange(4)) & 1)) @ re_rows
        square = oracle._vectorized_square

        def spoiled(C, n, out):
            out = square(C, n, out)
            out[(C == bad_row).all(axis=1), 0] += 1
            return out

        monkeypatch.setattr(oracle, "_vectorized_square", spoiled)
        monkeypatch.setattr(oracle, "_SQUARE_ROWS", block_rows)
        report = verify_special_sets(n)
        # 15 spot checks, 16 squares and the cardinality of the minus-one
        # family, 16 squares of the one family
        assert report.checks == 48
        assert report.failure == {
            "law": "defining equation of one",
            "element": str(MulticomplexNumber(n, bad_row.tolist(), n - 1)),
            "square": "17/16",
        }

    @pytest.mark.parametrize("kind", list(SpecialSetKind))
    def test_duplicated_row_fails_the_cardinality(self, kind, monkeypatch):
        # pattern 2 repeated as pattern 3: every square still holds and no
        # spot check reads either pattern
        copied_patterns(monkeypatch, kind, {3: 2})
        report = verify_special_sets(3)
        # 15 spot checks, then 16 squares and a cardinality per family
        assert report.checks == 15 + 17 * (list(SpecialSetKind).index(kind) + 1)
        assert report.failure == {"law": f"cardinality of {kind.value}",
                                  "expected": 16}

    @pytest.mark.parametrize("kind", list(SpecialSetKind))
    def test_duplicate_across_blocks_fails_the_cardinality(self, kind, monkeypatch):
        # patterns 5 and 40,000 lie in different blocks of 4,096 rows: only
        # the hashes kept from every block can see that they are equal
        copied_patterns(monkeypatch, kind, {40000: 5})
        report = verify_special_sets(5)
        assert report.checks == 15 + 65537 * (list(SpecialSetKind).index(kind) + 1)
        assert report.failure == {"law": f"cardinality of {kind.value}",
                                  "expected": 65536}

    def test_swapped_idempotents_fail_the_halving_identity(self, monkeypatch):
        # the idempotent family is the same set with two patterns exchanged,
        # in different blocks, so only (1 + h)/2 pattern by pattern fails
        copied_patterns(monkeypatch, SpecialSetKind.IDEMPOTENT,
                        {5: 40000, 40000: 5})
        report = verify_special_sets(5)
        assert report.checks == 196629
        assert report.failure == {
            "law": "idempotent family equals (1 + one family)/2"}

    def test_colliding_hashes_are_compared_exactly(self, monkeypatch):
        # with every hash equal, every pair of rows is compared
        monkeypatch.setattr(oracle, "_HASH_WEIGHTS", (0,) * 32)
        assert verify_special_sets(3).ok
        copied_patterns(monkeypatch, SpecialSetKind.SQUARE_ONE, {3: 2})
        report = verify_special_sets(3)
        assert report.failure["law"] == "cardinality of one"

    def test_distinct_rows(self, monkeypatch):
        def distinct(rows):
            hashes = oracle._row_hashes(np.ascontiguousarray(rows.T))
            return oracle._distinct_rows(hashes, rows.__getitem__)

        rows = np.array([[1, 2], [3, 4], [1, 2]], dtype=np.int64)
        assert not distinct(rows)
        assert distinct(rows[:2])
        monkeypatch.setattr(oracle, "_HASH_WEIGHTS", (0,) * 32)
        # one group of three: the equal rows are not neighbours in it
        assert not distinct(rows)
        assert distinct(rows[:2])
        assert distinct(np.arange(12, dtype=np.int64).reshape(6, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_squares_that_could_wrap_are_refused(self, n, monkeypatch):
        monkeypatch.setattr(oracle, "_component_basis_rows",
                            lambda n: [rows << 30 for rows in _basis_rows(n)])
        with pytest.raises(OverflowError):
            verify_special_sets(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_squares_that_fit_only_in_int64_are_refused(self, n, monkeypatch):
        # the basis times 2^16: the family bound lies between 2^31 and 2^63
        shifted = [rows << 16 for rows in _basis_rows(n)]
        for rows in shifted:
            # the sign families' bound lies between 2 and 3 sum |rows| in a column
            total = int(np.abs(rows).sum(axis=0).max())
            assert 1 << 31 <= (1 << n) * (2 * total) ** 2
            assert (1 << n) * (3 * total) ** 2 < 1 << 63
        monkeypatch.setattr(oracle, "_component_basis_rows", lambda n: shifted)
        with pytest.raises(OverflowError, match="int32"):
            verify_special_sets(n)

    def test_memory_stays_below_one_family(self):
        # a whole family of MC(5) is 2^16 rows of 32 int32, 8 MB; numpy
        # reports its buffers to tracemalloc
        tracemalloc.start()
        try:
            assert verify_special_sets(5).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_hash_weights(self):
        assert len(set(oracle._HASH_WEIGHTS)) == 32
        assert all(w % 2 and 0 < w < 1 << 64 for w in oracle._HASH_WEIGHTS)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_row_hashes_are_dot_products_modulo_2_to_64(self, dtype):
        cols = np.array([[-(2 ** 31), 5, 0], [-1, 2 ** 31 - 1, 7]], dtype=dtype)
        expected = [sum(w * int(c) for w, c in zip(oracle._HASH_WEIGHTS, col))
                    % (1 << 64) for col in cols.T]
        hashes = oracle._row_hashes(cols)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == expected

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_special_sets(0)
        with pytest.raises(ValueError):
            verify_special_sets(6)


class TestDuckTyping:
    def test_plain_object_with_apply_is_accepted(self):
        class Scaler:
            order_n = 1

            def apply(self, eta):
                return eta.scale(DyadicRational(1, 1))

        report = verify_homomorphism(Scaler())
        assert not report.ok
        # halving 1 breaks multiplicativity on the very first pair
        assert report.failure["law"] == "multiplicative"
        assert report.checks == 1
