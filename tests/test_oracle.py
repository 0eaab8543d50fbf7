"""Tests for the brute-force validators."""
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multicomplex import (
    Automorphism,
    DyadicRational,
    IdempotentVector,
    MulticomplexNumber,
    SpecialSetKind,
    VerificationReport,
    brute_count_preserving,
    brute_count_r_involutions,
    brute_count_signed_involutions,
    count_preserving,
    count_r_involutions,
    count_signed_involutions,
    enumerate_automorphisms,
    enumerate_preserving_involutions,
    from_idempotent,
    oracle,
    to_idempotent,
    unit_product,
    verify_homomorphism,
    verify_special_sets,
)
from multicomplex.gf2_preserving import matrix_unit_data


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
        assert np.array_equal(oracle._vectorized_square(rows, n), loop_square(rows, n))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_signed_power_count_matches_loop(self, N, r):
        assert oracle._signed_power_count(N, r) == loop_signed_power_count(N, r)

    def test_signed_power_count_matches_loop_on_eight_symbols(self):
        assert oracle._signed_power_count(8, 2) == loop_signed_power_count(8, 2)

    def test_chunks_split_the_walk(self, monkeypatch):
        # a chunk of a few permutations each still counts every one of them
        monkeypatch.setattr(oracle, "_CHUNK_ELEMENTS", 3 * 16 * 4)
        assert oracle._signed_power_count(4, 2) == loop_signed_power_count(4, 2)


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
