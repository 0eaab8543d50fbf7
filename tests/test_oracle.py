"""Tests for the brute-force validators."""
import pytest

from multicomplex import (
    Automorphism,
    DyadicRational,
    MulticomplexNumber,
    VerificationReport,
    brute_count_r_involutions,
    brute_count_signed_involutions,
    corrupted_component_action,
    count_r_involutions,
    count_signed_involutions,
    enumerate_automorphisms,
    verify_homomorphism,
    verify_special_sets,
)


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

    def test_nontrivial_order_six_map_passes(self):
        f = Automorphism.from_text(3, "4,1,-3,2")
        assert verify_homomorphism(f).ok

    def test_samples_are_checked(self):
        f = Automorphism.identity(2)
        samples = [
            MulticomplexNumber.from_coeff_map(2, {0: "1/2", 3: "-3/4"}),
            MulticomplexNumber.from_coeff_map(2, {1: 2, 2: "5/2"}),
        ]
        base = verify_homomorphism(f).checks
        report = verify_homomorphism(f, samples)
        assert report.ok
        assert report.checks == base + 2 + 2 * 2

    def test_corrupted_map_fails_multiplicativity(self):
        base = Automorphism.identity(2)
        bad = corrupted_component_action(base, 0)
        report = verify_homomorphism(bad)
        assert not report.ok
        assert report.failure["law"] == "multiplicative"
        assert set(report.failure) == {"law", "inputs", "lhs", "rhs"}

    def test_corrupted_map_fails_for_every_base(self):
        for f in enumerate_automorphisms(2):
            bad = corrupted_component_action(f, 1)
            assert not verify_homomorphism(bad).ok

    def test_corrupted_component_range(self):
        with pytest.raises(ValueError):
            corrupted_component_action(Automorphism.identity(2), 2)

    def test_report_json(self):
        good = VerificationReport(True, 5)
        assert good.to_json_dict() == {"ok": True, "checks": 5}
        bad = VerificationReport(False, 3, {"law": "x"})
        assert bad.to_json_dict() == {
            "ok": False, "checks": 3, "failure": {"law": "x"}
        }


class TestVerifySpecialSets:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_families_verify(self, n):
        report = verify_special_sets(n)
        assert report.ok
        # at least one defining-equation check per element of each family
        assert report.checks >= 3 * (1 << (1 << (n - 1)))

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
