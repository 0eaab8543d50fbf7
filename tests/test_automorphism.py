"""Tests for signed permutations and the automorphism group action."""
import pytest
from hypothesis import given, strategies as st

from multicomplex import (
    Automorphism,
    DyadicRational,
    IdempotentVector,
    MulticomplexNumber,
    SignedPermutation,
    automorphism,
    enumerate_automorphisms,
    enumerate_r_involutions,
    from_idempotent,
    to_idempotent,
)


@st.composite
def signed_permutations(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    base = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return SignedPermutation([s * v for s, v in zip(signs, base)])


def signed_pairs(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            fixed_size_permutation(n), fixed_size_permutation(n)
        )
    )


@st.composite
def fixed_size_permutation(draw, n):
    base = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return SignedPermutation([s * v for s, v in zip(signs, base)])


class TestSignedPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignedPermutation([1, 1])
        with pytest.raises(ValueError):
            SignedPermutation([1, 3])
        with pytest.raises(ValueError):
            SignedPermutation([0, 1])

    def test_images_are_ints(self):
        with pytest.raises(TypeError):
            SignedPermutation([1.0, 2])
        pi = SignedPermutation([True, -2])
        assert pi.images == (1, -2) and pi.to_text() == "1,-2"

    def test_call_on_signed_symbols(self):
        pi = SignedPermutation([3, -2, 4, 1])
        assert pi(1) == 3
        assert pi(2) == -2
        assert pi(-2) == 2
        assert pi(-1) == -3

    @given(signed_pairs())
    def test_compose_definition(self, pair):
        a, b = pair
        c = a.compose(b)
        assert c.images == tuple(a(b(j)) for j in range(1, a.n_symbols + 1))
        for j in range(1, a.n_symbols + 1):
            assert c(j) == a(b(j))
            assert c(-j) == -c(j)

    @given(st.integers(1, 64).flatmap(lambda n: st.tuples(
        fixed_size_permutation(n), fixed_size_permutation(n))))
    def test_compose_equals_the_checked_construction(self, pair):
        # compose skips the public constructor's checks
        a, b = pair
        c = a.compose(b)
        checked = SignedPermutation([a(v) for v in b.images])
        assert type(c.images) is tuple and c.images == checked.images
        assert c == checked and hash(c) == hash(checked)

    @given(signed_permutations())
    def test_inverse(self, pi):
        ident = SignedPermutation.identity(pi.n_symbols)
        assert pi.compose(pi.inverse()) == ident
        assert pi.inverse().compose(pi) == ident

    @given(signed_permutations())
    def test_order_matches_literal_composition(self, pi):
        # cross-check the cycle-based order against repeated composition
        k = pi.order()
        ident = SignedPermutation.identity(pi.n_symbols)
        acc = ident
        for _ in range(k):
            acc = pi.compose(acc)
        assert acc == ident
        for p in {d for d in (2, 3, 5, 7, 11, 13) if k % d == 0}:
            acc = ident
            for _ in range(k // p):
                acc = pi.compose(acc)
            assert acc != ident

    def test_known_cycle_structure(self):
        pi = SignedPermutation.from_text("4,1,-3,2")
        cycles = sorted(pi.signed_cycles())
        # 1 -> 4 -> 2 -> 1 all positive; 3 -> 3 with a sign flip
        assert cycles == [(1, -1), (3, 1)]
        assert pi.order() == 6

    def test_all_negative_identity_is_an_involution(self):
        pi = SignedPermutation([-1, -2, -3])
        assert pi.order() == 2

    @given(signed_permutations())
    def test_text_round_trip(self, pi):
        assert SignedPermutation.from_text(pi.to_text()) == pi

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            SignedPermutation.from_text("1, two")
        with pytest.raises(ValueError):
            SignedPermutation.from_text("")

    @given(signed_permutations())
    def test_json_form(self, pi):
        data = pi.to_json_dict()
        assert data == {"N": pi.n_symbols, "images": list(pi.images)}
        assert SignedPermutation(data["images"]) == pi


@st.composite
def near_involutions(draw, N):
    """Signed involutions on N symbols, built from 2-cycles and fixed
    points, and half of the time one sign flipped, which breaks the
    involution when it falls on a 2-cycle."""
    symbols = list(draw(st.permutations(list(range(1, N + 1)))))
    images = [0] * N
    while symbols:
        a, sign = symbols.pop(), draw(st.sampled_from([1, -1]))
        if symbols and draw(st.booleans()):
            b = symbols.pop()
            images[a - 1], images[b - 1] = sign * b, sign * a
        else:
            images[a - 1] = sign * a
    if draw(st.booleans()):
        j = draw(st.integers(0, N - 1))
        images[j] = -images[j]
    return SignedPermutation(images)


def automorphisms(n):
    N = 1 << (n - 1)
    return st.builds(lambda p: Automorphism(n, p), fixed_size_permutation(N))


def dyadics():
    return st.builds(
        DyadicRational, st.integers(-8, 8), st.integers(0, 2)
    )


def elements(n):
    width = 1 << n
    return st.builds(
        MulticomplexNumber,
        st.just(n),
        st.lists(dyadics(), min_size=width, max_size=width),
    )


def seeded_elements(n):
    """Elements of MC(n) from a seeded generator, so that n = 8 stays
    cheap: odd numerators over 2^exp with exp > 0, zeros among them, and
    now and then the zero element."""
    def build(rnd):
        if rnd.random() < 0.1:
            return MulticomplexNumber.zero(n)
        nums = [0 if rnd.random() < 0.2 else 2 * rnd.randint(-64, 63) + 1
                for _ in range(1 << n)]
        return MulticomplexNumber(n, nums, rnd.randint(1, 6))
    return st.randoms(use_true_random=False).map(build)


def checked_apply(f, eta):
    """Automorphism.apply through the checked IdempotentVector constructor,
    which brings the moved vector to lowest terms again."""
    vec = to_idempotent(eta)
    nums = vec.nums
    out = list(nums)
    for j, v in enumerate(f.perm.images):
        to = 2 * abs(v) - 2
        out[to] = nums[2 * j]
        out[to + 1] = nums[2 * j + 1] if v > 0 else -nums[2 * j + 1]
    return from_idempotent(IdempotentVector(f.order_n, out, vec.exp))


class TestAutomorphism:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            Automorphism(3, SignedPermutation([1, 2]))

    def test_order_zero_rejected(self):
        one = SignedPermutation([1])
        with pytest.raises(ValueError, match="n must be at least 1"):
            Automorphism(0, one)
        with pytest.raises(ValueError, match="n must be at least 1"):
            Automorphism(-1, one)

    def test_identity_of_order_zero_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            Automorphism.identity(0)

    def test_from_text_of_order_zero_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            Automorphism.from_text(0, "1")

    def test_identity_fixes_everything(self):
        f = Automorphism.identity(3)
        for mask in range(8):
            u = MulticomplexNumber.unit(mask, 3)
            assert f.apply(u) == u

    def test_conjugation_at_order_two(self):
        # negating both components conjugates: i1 -> -i1, i2 -> -i2,
        # while the even part 1, i1i2 stays fixed
        f = Automorphism.from_text(2, "-1,-2")
        i1 = MulticomplexNumber.generator(1, 2)
        i2 = MulticomplexNumber.generator(2, 2)
        pair = MulticomplexNumber.unit(0b11, 2)
        assert f.apply(i1) == -i1
        assert f.apply(i2) == -i2
        assert f.apply(pair) == pair
        assert f.apply(MulticomplexNumber.one(2)) == MulticomplexNumber.one(2)

    def test_apply_checks_order(self):
        f = Automorphism.identity(2)
        with pytest.raises(ValueError):
            f.apply(MulticomplexNumber.one(3))

    def test_apply_refuses_idempotent_coordinates(self):
        vec = to_idempotent(MulticomplexNumber(2, [1, 2, 3, 4]))
        with pytest.raises(TypeError, match="got IdempotentVector"):
            Automorphism.identity(2).apply(vec)

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(automorphisms(n), seeded_elements(n))))
    def test_apply_matches_the_checked_route(self, case):
        f, x = case
        y, z = f.apply(x), checked_apply(f, x)
        assert type(y.nums) is tuple
        assert (y.order, y.nums, y.exp) == (z.order, z.nums, z.exp)

    def test_apply_transforms_once_each_way(self, monkeypatch):
        # the benchmark's coverage counts read these two bindings
        calls = []

        def counted(name, kernel):
            def wrapper(arg):
                calls.append((name, arg))
                return kernel(arg)
            return wrapper

        monkeypatch.setattr(automorphism, "to_idempotent",
                            counted("to", automorphism.to_idempotent))
        monkeypatch.setattr(automorphism, "from_idempotent",
                            counted("from", automorphism.from_idempotent))
        for n in range(1, 7):
            N = 1 << (n - 1)
            f = Automorphism(n, SignedPermutation(
                [-j if j % 2 else j for j in range(N, 0, -1)]))
            x = MulticomplexNumber(n, [2 * m - 7 for m in range(1 << n)], 3)
            calls.clear()
            assert f.apply(x) == checked_apply(f, x)
            assert [name for name, _ in calls] == ["to", "from"]
            moved = calls[1][1]
            checked = IdempotentVector(moved.order, moved.nums, moved.exp)
            assert type(moved.nums) is tuple
            assert (moved.nums, moved.exp) == (checked.nums, checked.exp)

    @given(automorphisms(3), automorphisms(3), elements(3))
    def test_composition_matches_sequential_application(self, f, g, x):
        assert f.compose(g).apply(x) == f.apply(g.apply(x))

    @given(automorphisms(3), elements(3))
    def test_inverse_undoes_apply(self, f, x):
        assert f.inverse().apply(f.apply(x)) == x

    @given(automorphisms(2), elements(2), elements(2))
    def test_apply_is_multiplicative(self, f, x, y):
        assert f.apply(x * y) == f.apply(x) * f.apply(y)

    @given(automorphisms(3), elements(3))
    def test_element_order_is_exact(self, f, x):
        y = x
        for _ in range(f.element_order()):
            y = f.apply(y)
        assert y == x

    def test_is_involution_and_r_involution(self):
        f = Automorphism.from_text(3, "4,1,-3,2")
        assert f.element_order() == 6
        assert not f.is_involution()
        assert f in enumerate_r_involutions(3, 6)
        assert f in enumerate_r_involutions(3, 12)
        assert f not in enumerate_r_involutions(3, 4)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
        fixed_size_permutation(1 << (n - 1)), near_involutions(1 << (n - 1))))))
    def test_is_involution_matches_element_order(self, case):
        f = Automorphism(*case)
        assert f.is_involution() is (f.element_order() <= 2)

    def test_order_goes_through_index(self):
        one = SignedPermutation([1])
        f = Automorphism(True, one)
        assert type(f.order_n) is int and repr(f) == "Automorphism(n=1, pi=1)"
        assert f == Automorphism(1, one) and hash(f) == hash(Automorphism(1, one))
        with pytest.raises(TypeError):
            Automorphism(1.0, one)

    def test_unit_images_of_identity(self):
        f = Automorphism.identity(3)
        assert f.unit_images() == [
            MulticomplexNumber.generator(k, 3) for k in (1, 2, 3)
        ]


class TestEnumeration:
    def test_order_one_group(self):
        autos = list(enumerate_automorphisms(1))
        assert len(autos) == 2
        i1 = MulticomplexNumber.generator(1, 1)
        images = {a.apply(i1) for a in autos}
        assert images == {i1, -i1}

    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 8), (3, 384)])
    def test_census(self, n, expected):
        autos = list(enumerate_automorphisms(n))
        assert len(autos) == expected
        assert len(set(autos)) == expected

    def test_first_element_is_identity(self):
        assert next(enumerate_automorphisms(3)) == Automorphism.identity(3)

    def test_deterministic_order(self):
        first = [a.perm.to_text() for a in enumerate_automorphisms(2)]
        second = [a.perm.to_text() for a in enumerate_automorphisms(2)]
        assert first == second

    def test_involution_filter(self):
        involutions = list(enumerate_r_involutions(3, 2))
        assert len(involutions) == 76
        assert all(f.element_order() <= 2 for f in involutions)

    def test_r_one_gives_identity_only(self):
        assert list(enumerate_r_involutions(2, 1)) == [Automorphism.identity(2)]

    def test_r_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_r_involutions(2, 0))
        with pytest.raises(ValueError, match="at least 1"):
            list(enumerate_automorphisms(0))
        with pytest.raises(ValueError, match="at least 1"):
            list(enumerate_r_involutions(0, 2))

    def test_every_sixth_power_is_identity_for_r6(self):
        ident = Automorphism.identity(2)
        for f in enumerate_r_involutions(2, 6):
            acc = ident
            for _ in range(6):
                acc = f.compose(acc)
            assert acc == ident
