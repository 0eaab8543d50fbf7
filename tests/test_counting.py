"""Tests for the closed-form counting functions.

Wherever two independent routes exist (closed form vs recursion, generic
r-count vs odd-prime count), both are computed and compared instead of
collapsing them into one.
"""
import math

import mpmath
import pytest

from multicomplex import (
    asymptotic_estimate,
    count_automorphisms,
    count_independent_image_tuples,
    count_involutions,
    count_p_involutions,
    count_preserving,
    count_r_involutions,
    count_signed_involutions,
    count_signed_r_involutions,
    count_subspaces_containing_all_ones,
    cycle_types_with_parts_dividing,
    g_sequence,
)
from multicomplex.oracle import brute_count_r_involutions

INVOLUTION_TABLE = {1: 2, 2: 6, 3: 76, 4: 32400, 5: 50305536256}


def cycle_type_sum(N: int, r: int) -> int:
    """Signed permutations on N symbols with pi^r = identity, summed over
    cycle types with parts dividing r: the reference for the recurrence.

    A k-cycle takes 2^k sign patterns when r/k is even and 2^(k-1) when
    r/k is odd; the 2-power cancellation is checked exactly.
    """
    total = 0
    for ctype in cycle_types_with_parts_dividing(N, r):
        halved = sum(m for k, m in ctype.multiplicities.items() if (r // k) % 2 == 1)
        term, rem = divmod(ctype.permutation_count() << N, 1 << halved)
        assert rem == 0
        total += term
    return total


class TestInvolutionCounts:
    def test_frozen_table(self):
        for n, expected in INVOLUTION_TABLE.items():
            assert count_involutions(n) == expected

    def test_signed_involution_values(self):
        assert [count_signed_involutions(N) for N in range(7)] == [
            1, 2, 6, 20, 76, 312, 1384
        ]

    def test_signed_involutions_validate(self):
        with pytest.raises(ValueError):
            count_signed_involutions(-1)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            count_involutions(0)


class TestRecursion:
    def test_seed_values(self):
        assert g_sequence(1) == 2
        assert g_sequence(2) == 6

    def test_matches_closed_form(self):
        for m in range(1, 301):
            assert g_sequence(m) == count_signed_involutions(m)

    def test_component_count_identity(self):
        for n in range(1, 7):
            assert g_sequence(1 << (n - 1)) == count_involutions(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            g_sequence(0)


class TestAutomorphismCount:
    def test_values(self):
        assert count_automorphisms(1) == 2
        assert count_automorphisms(2) == 8
        assert count_automorphisms(3) == 384
        assert count_automorphisms(4) == (1 << 8) * math.factorial(8)

    def test_involutions_are_a_subset(self):
        for n in range(1, 6):
            assert count_involutions(n) <= count_automorphisms(n)


class TestOddPrimeCounts:
    def test_rejects_non_odd_primes(self):
        for p in (1, 2, 4, 9, 15):
            with pytest.raises(ValueError):
                count_p_involutions(3, p)

    def test_prime_longer_than_component_count(self):
        # no room for a p-cycle, so only the identity remains
        assert count_p_involutions(1, 3) == 1
        assert count_p_involutions(2, 3) == 1
        assert count_p_involutions(3, 5) == 1

    def test_known_value(self):
        assert count_p_involutions(3, 3) == 33

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_agrees_with_generic_route(self, n, p):
        assert count_p_involutions(n, p) == count_r_involutions(n, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_term_ratio_matches_factorial_sum(self, n, p):
        # sum over k of N! 2^((p-1)k) / (k! p^k (N-pk)!), two factorials a term
        N = 1 << (n - 1)
        factorial_sum = sum(
            math.factorial(N) * 2 ** ((p - 1) * k)
            // (math.factorial(k) * p ** k * math.factorial(N - p * k))
            for k in range(N // p + 1)
        )
        assert count_p_involutions(n, p) == factorial_sum


class TestRInvolutionCounts:
    def test_r_one_counts_identity(self):
        for n in range(1, 5):
            assert count_r_involutions(n, 1) == 1

    def test_r_two_matches_involutions(self):
        for n in range(1, 7):
            assert count_r_involutions(n, 2) == count_involutions(n)

    def test_frozen_values_for_order_three(self):
        values = {r: count_r_involutions(3, r) for r in range(1, 7)}
        assert values == {1: 1, 2: 76, 3: 33, 4: 208, 5: 1, 6: 204}

    def test_single_symbol_group(self):
        for r in range(1, 9):
            assert count_signed_r_involutions(1, r) == (2 if r % 2 == 0 else 1)

    def test_divisor_monotonicity(self):
        for n in (1, 2, 3):
            for r in (2, 3):
                for m in (2, 3):
                    assert count_r_involutions(n, r) <= count_r_involutions(n, m * r)

    def test_bounded_by_group_order(self):
        for n in (1, 2, 3, 4):
            for r in range(1, 13):
                assert count_r_involutions(n, r) <= count_automorphisms(n)

    def test_recurrence_matches_cycle_type_sum(self):
        for N in range(1, 30):
            for r in range(1, 25):
                assert count_signed_r_involutions(N, r) == cycle_type_sum(N, r), (N, r)

    def test_recurrence_matches_brute_force(self):
        for n in (1, 2, 3):
            for r in range(1, 9):
                assert count_r_involutions(n, r) == brute_count_r_involutions(n, r)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_signed_r_involutions(0, 2)
        with pytest.raises(ValueError):
            count_signed_r_involutions(3, 0)
        with pytest.raises(ValueError):
            count_r_involutions(0, 2)


class TestCycleTypes:
    def test_parts_divide_r(self):
        for ctype in cycle_types_with_parts_dividing(6, 4):
            assert all(4 % k == 0 for k in ctype.multiplicities)
            assert ctype.total() == 6

    def test_involution_types_of_four_symbols(self):
        types = list(cycle_types_with_parts_dividing(4, 2))
        assert len(types) == 3
        total = sum(t.permutation_count() for t in types)
        # all involutions of S_4 plus the identity
        assert total == 10

    def test_r_one_forces_fixed_points(self):
        types = list(cycle_types_with_parts_dividing(5, 1))
        assert len(types) == 1
        assert types[0].multiplicities == {1: 5}


class TestSubspaceCounts:
    def test_small_dimensions_are_unique(self):
        for n in range(1, 7):
            assert count_subspaces_containing_all_ones(0, n) == 1
            assert count_subspaces_containing_all_ones(1, n) == 1
            assert count_subspaces_containing_all_ones(n, n) == 1

    def test_known_values(self):
        assert count_subspaces_containing_all_ones(2, 3) == 3
        assert count_subspaces_containing_all_ones(2, 4) == 7
        assert count_subspaces_containing_all_ones(3, 4) == 7
        assert count_subspaces_containing_all_ones(3, 5) == 35

    def test_validation(self):
        with pytest.raises(ValueError):
            count_subspaces_containing_all_ones(-1, 3)
        with pytest.raises(ValueError):
            count_subspaces_containing_all_ones(4, 3)

    def test_image_tuple_counts(self):
        assert count_independent_image_tuples(3, 3) == 1
        assert count_independent_image_tuples(2, 3) == 3
        assert count_independent_image_tuples(2, 4) == 6
        assert count_independent_image_tuples(3, 4) == 7
        with pytest.raises(ValueError):
            count_independent_image_tuples(5, 4)


class TestPreservingCount:
    def test_frozen_values(self):
        assert [count_preserving(n) for n in range(1, 7)] == [
            2, 6, 44, 576, 15392, 759936
        ]

    def test_matches_summation_by_hand_at_order_three(self):
        # k = 2 : 3 subspaces * 3 image tuples * 4 signs = 36
        # k = 3 : 1 subspace * 1 empty tuple * 8 signs = 8
        assert count_preserving(3) == 36 + 8

    def test_bounded_by_involution_count(self):
        for n in range(1, 6):
            assert count_preserving(n) <= count_involutions(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_preserving(0)


class TestAsymptotics:
    def test_returns_high_precision_log(self):
        est = asymptotic_estimate(4)
        assert isinstance(est, mpmath.mpf)

    def test_formula_value_at_order_three(self):
        with mpmath.workdps(40):
            ln2 = mpmath.ln(2)
            expected = 2 * (3 * ln2 - 1) + mpmath.sqrt(8) - (ln2 + 1) / 2
            assert abs(asymptotic_estimate(3) - expected) < mpmath.mpf(10) ** -30

    def test_counts_grow(self):
        values = [count_involutions(n) for n in range(1, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_estimate(0)
