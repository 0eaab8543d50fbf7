"""Tests for dyadic rationals, unit masks, and ring arithmetic."""
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multicomplex import (
    Automorphism,
    DyadicRational,
    IdempotentVector,
    MulticomplexNumber,
    componentwise_mul,
    from_idempotent,
    parse_unit_name,
    to_idempotent,
    unit_name,
    unit_product,
)
from multicomplex.mc_core import _butterflies, _merge, _split
from test_oracle import convolve


def dyadics(max_num=64, max_exp=4):
    return st.builds(
        DyadicRational,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=0, max_value=max_exp),
    )


def as_fraction(d):
    return Fraction(d.num, 1 << d.exp)


class TestDyadicRational:
    def test_lowest_terms(self):
        d = DyadicRational(4, 3)
        assert (d.num, d.exp) == (1, 1)

    def test_zero_normal_form(self):
        assert DyadicRational(0, 5) == DyadicRational(0)
        assert not DyadicRational(0, 5)

    def test_default_exponent_is_integer(self):
        assert DyadicRational(7) == DyadicRational(7, 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            DyadicRational(1, -1)

    @pytest.mark.parametrize("args,field", [
        ((1.5,), "num"), (("3",), "num"), ((2, 1.0), "exp"), ((1, "2"), "exp"),
    ])
    def test_non_integer_fields_rejected(self, args, field):
        with pytest.raises(TypeError, match=f"DyadicRational {field} must be an integer"):
            DyadicRational(*args)

    def test_bool_fields_become_ints(self):
        d = DyadicRational(True, True)
        assert (type(d.num), type(d.exp)) == (int, int)
        assert d == DyadicRational(1, 1) and str(d) == "1/2"
        assert str(DyadicRational(True)) == "1"

    @given(st.integers(-64, 64), st.integers(0, 4), st.integers(0, 6))
    def test_common_twos_are_stripped(self, p, e, k):
        d = DyadicRational(p << k, e + k)
        assert d == DyadicRational(p, e) and hash(d) == hash(DyadicRational(p, e))

    def test_immutable(self):
        d = DyadicRational(1, 1)
        with pytest.raises(AttributeError):
            d.num = 5

    @pytest.mark.parametrize(
        "text,num,exp",
        [("3", 3, 0), ("-5", -5, 0), ("1/2", 1, 1), ("-3/8", -3, 3),
         ("6/4", 3, 1), ("0/16", 0, 0)],
    )
    def test_parse(self, text, num, exp):
        d = DyadicRational.parse(text)
        assert (d.num, d.exp) == (num, exp)

    @pytest.mark.parametrize("text", ["1/3", "1/0", "x", "1.5", "2/-4", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            DyadicRational.parse(text)

    @given(dyadics())
    def test_str_parse_round_trip(self, d):
        assert DyadicRational.parse(str(d)) == d

    @given(dyadics(), dyadics())
    def test_add_matches_fractions(self, a, b):
        assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)

    @given(dyadics())
    def test_neg_is_additive_inverse(self, a):
        assert a + (-a) == DyadicRational(0)

    def test_int_mixing(self):
        assert DyadicRational(1, 1) + 1 == DyadicRational(3, 1)
        assert DyadicRational(6, 1) == 3
        assert DyadicRational(1, 1) != 1

    @given(dyadics())
    def test_hash_consistent_with_eq(self, a):
        b = DyadicRational(a.num, a.exp)
        assert a == b and hash(a) == hash(b)

    @given(st.integers(-64, 64), st.integers(0, 4))
    def test_equal_int_hashes_alike(self, value, exp):
        d = DyadicRational(value << exp, exp)
        assert d == value and hash(d) == hash(value)

    def test_int_and_dyadic_are_one_set_element(self):
        assert hash(DyadicRational(6, 1)) == hash(3)
        assert len({DyadicRational(3), DyadicRational(6, 1), 3}) == 1

    def test_str_forms(self):
        assert str(DyadicRational(-3, 2)) == "-3/4"
        assert str(DyadicRational(5)) == "5"


class TestUnitProduct:
    def test_generator_squares_to_minus_one(self):
        assert unit_product(0b1, 0b1) == (-1, 0)
        assert unit_product(0b100, 0b100) == (-1, 0)

    def test_disjoint_masks_multiply_plainly(self):
        assert unit_product(0b001, 0b110) == (1, 0b111)

    def test_shared_pair_gives_sign(self):
        # i1i2 * i2i3 = -i1i3 (one shared generator)
        assert unit_product(0b011, 0b110) == (-1, 0b101)
        # i1i2 * i1i2 = +1 (two shared generators)
        assert unit_product(0b011, 0b011) == (1, 0)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_commutative(self, a, b):
        assert unit_product(a, b) == unit_product(b, a)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_associative(self, a, b, c):
        s1, m1 = unit_product(a, b)
        s2, m2 = unit_product(m1, c)
        t1, k1 = unit_product(b, c)
        t2, k2 = unit_product(a, k1)
        assert (s1 * s2, m2) == (t1 * t2, k2)

    def test_one_is_neutral(self):
        assert unit_product(0, 0b1011) == (1, 0b1011)


class TestUnitNames:
    def test_one_renders_empty(self):
        assert unit_name(0) == ""
        assert parse_unit_name("") == 0

    def test_render(self):
        assert unit_name(0b101) == "i1*i3"
        assert unit_name(0b10) == "i2"

    @given(st.integers(0, 1023))
    def test_round_trip(self, mask):
        assert parse_unit_name(unit_name(mask)) == mask

    @pytest.mark.parametrize("bad", ["i0", "j1", "i1*i1", "i1**i2", "1"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_unit_name(bad)

    @given(st.lists(st.text(alphabet="i*j 01239\u0663\u00b2\u2167_\t", max_size=6),
                    min_size=1, max_size=4).map("*".join))
    def test_matches_regex_parser(self, name):
        assert outcome(parse_unit_name, name) == outcome(regex_parse_unit_name, name)


def regex_parse_unit_name(name):
    """parse_unit_name as it was written with a regular expression: the
    reference for what the parser accepts and how it fails."""
    name = name.strip()
    if not name:
        return 0
    mask = 0
    for part in name.split("*"):
        m = re.fullmatch(r"i(\d+)", part.strip())
        if not m or int(m.group(1)) < 1:
            raise ValueError(f"bad unit name: {name!r}")
        bit = 1 << (int(m.group(1)) - 1)
        if mask & bit:
            raise ValueError(f"repeated unit in name: {name!r}")
        mask |= bit
    return mask


def outcome(parse, name):
    try:
        return parse(name)
    except ValueError as exc:
        return str(exc)


def elements(n, max_num=8, max_exp=2):
    width = 1 << n
    return st.builds(
        MulticomplexNumber,
        st.just(n),
        st.lists(dyadics(max_num, max_exp), min_size=width, max_size=width),
    )


class TestMulticomplexNumber:
    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            MulticomplexNumber(2, [1, 2, 3])

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            MulticomplexNumber(0, [1])

    def test_order_is_an_int(self):
        x = MulticomplexNumber(True, [1, 2])
        assert type(x.order) is int and x.to_json_dict()["n"] == 1
        with pytest.raises(TypeError):
            MulticomplexNumber(1.0, [1, 2])
        for y in (MulticomplexNumber.unit(0, True), MulticomplexNumber.one(True),
                  MulticomplexNumber.zero(True),
                  MulticomplexNumber.from_coeff_map(True, {1: 2})):
            assert type(y.order) is int and y.order == 1
        with pytest.raises(TypeError):
            MulticomplexNumber.unit(0, 1.0)

    @pytest.mark.parametrize("name,args", [
        ("one", (0,)), ("unit", (0, 0)), ("unit", (0, -1)), ("zero", (0,)),
        ("zero", (-1,)), ("from_coeff_map", (-1, {})), ("from_coeff_map", (0, {})),
    ])
    def test_constructors_check_the_order(self, name, args):
        # the same refusal as the public constructor, before any 2^order
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            getattr(MulticomplexNumber, name)(*args)

    def test_unit_mask_range(self):
        with pytest.raises(ValueError):
            MulticomplexNumber.unit(4, 2)

    def test_generator_range(self):
        with pytest.raises(ValueError):
            MulticomplexNumber.generator(3, 2)
        with pytest.raises(ValueError):
            MulticomplexNumber.generator(0, 2)

    def test_mixed_coefficients_accepted(self):
        x = MulticomplexNumber(1, [DyadicRational(1, 1), -3])
        assert x.coeff(0) == DyadicRational(1, 1)
        assert x.coeff(1) == DyadicRational(-3)

    def test_text_coefficients_rejected(self):
        # text is read by DyadicRational.parse, at the JSON boundary only
        with pytest.raises(TypeError):
            MulticomplexNumber(1, ["1/2", "-3"])
        with pytest.raises(TypeError):
            MulticomplexNumber.one(1).scale("1/2")

    def test_generators_square_to_minus_one(self):
        for n in range(1, 5):
            minus_one = -MulticomplexNumber.one(n)
            for k in range(1, n + 1):
                assert MulticomplexNumber.generator(k, n).square() == minus_one

    @given(elements(2), elements(2))
    def test_addition_commutes(self, x, y):
        assert x + y == y + x

    @given(elements(2), elements(2))
    def test_multiplication_commutes(self, x, y):
        assert x * y == y * x

    @given(elements(2), elements(2), elements(2))
    def test_multiplication_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(elements(2), elements(2), elements(2))
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(elements(3))
    def test_one_is_neutral(self, x):
        assert x * MulticomplexNumber.one(3) == x

    @given(elements(3))
    def test_subtraction_and_negation(self, x):
        assert x - x == MulticomplexNumber.zero(3)
        assert x + (-x) == MulticomplexNumber.zero(3)

    @given(elements(2), dyadics())
    def test_scale_matches_scalar_multiplication(self, x, lam):
        scalar = MulticomplexNumber.from_coeff_map(2, {0: lam})
        assert x.scale(lam) == x * scalar

    def test_order_mismatch_rejected(self):
        x = MulticomplexNumber.one(2)
        y = MulticomplexNumber.one(3)
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x * y

    @given(elements(3))
    def test_json_round_trip(self, x):
        assert MulticomplexNumber.loads(x.dumps()) == x

    def test_json_field_validation(self):
        with pytest.raises(ValueError):
            MulticomplexNumber.from_json_dict({"n": "3", "coeffs": {}})
        with pytest.raises(ValueError, match="must be an integer"):
            MulticomplexNumber.from_json_dict({"n": True, "coeffs": {}})

    @pytest.mark.parametrize("first,second", [
        ("i1*i2", "i2*i1"), ("i1", " i1"), ("", " "), ("i2 * i1", "i1*i2"),
    ])
    def test_json_refuses_two_spellings_of_one_unit(self, first, second):
        # the second coefficient would otherwise replace the first
        data = {"n": 2, "coeffs": {first: "1", second: "5"}}
        with pytest.raises(ValueError) as info:
            MulticomplexNumber.from_json_dict(data)
        assert repr(first) in str(info.value) and repr(second) in str(info.value)

    def test_str_rendering(self):
        x = MulticomplexNumber.from_coeff_map(
            2, {0: 1, 1: DyadicRational(-1, 1), 3: 1}
        )
        assert str(x) == "1 - 1/2*i1 + i1*i2"
        assert str(MulticomplexNumber.zero(2)) == "0"

    @given(elements(2))
    def test_hash_consistent_with_eq(self, x):
        y = MulticomplexNumber(2, x.coeffs)
        assert x == y and hash(x) == hash(y)


VECTORS = pytest.mark.parametrize("cls", [MulticomplexNumber, IdempotentVector])


class TestVectorConstructor:
    """The one checked constructor that both coordinate vectors share."""

    @VECTORS
    @pytest.mark.parametrize("exp", [1.0, 0.5])
    def test_exponent_must_be_an_integer(self, cls, exp):
        with pytest.raises(TypeError):
            cls(1, [1, 1], exp)

    @VECTORS
    def test_bool_exponent_becomes_an_int(self, cls):
        v = cls(1, [1, 2], True)
        assert type(v.exp) is int and v.exp == 1 and v.nums == (1, 2)

    @VECTORS
    def test_negative_exponent_rejected(self, cls):
        with pytest.raises(ValueError, match="^exp must be at least 0$"):
            cls(1, [1, 1], -1)

    def test_an_element_never_equals_its_coordinates(self):
        x = MulticomplexNumber(2, [1, 0, 0, 3], 1)
        v = IdempotentVector(2, [1, 0, 0, 3], 1)
        assert (x.order, x.nums, x.exp) == (v.order, v.nums, v.exp)
        assert x != v and v != x
        assert len({x, v}) == 2

    @VECTORS
    def test_slots_and_frozen(self, cls):
        v = cls(1, [1, 2])
        assert not hasattr(v, "__dict__")
        for field, value in (("order", 2), ("nums", (0, 0)), ("exp", 1)):
            with pytest.raises(AttributeError):
                setattr(v, field, value)
        assert (v.order, v.nums, v.exp) == (1, (1, 2), 0)


def operands(n):
    """Dense elements with mixed exponents, zero, and canonical units."""
    return st.one_of(
        elements(n, max_num=64, max_exp=6),
        st.just(MulticomplexNumber.zero(n)),
        st.integers(0, (1 << n) - 1).map(lambda m: MulticomplexNumber.unit(m, n)),
    )


class TestTransformProduct:
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(operands(n), operands(n))))
    def test_matches_reference_convolution(self, pair):
        x, y = pair
        assert x * y == convolve(x, y)

    def test_builds_no_dyadic_scalars(self, monkeypatch):
        n = 6
        width = 1 << n
        # dense operands over mixed powers of two, and a map that moves and
        # conjugates components
        x = MulticomplexNumber(n, [DyadicRational(3 * m - 95, m % 4)
                                   for m in range(width)])
        y = MulticomplexNumber(n, [DyadicRational(m + 1, m % 3) for m in range(width)])
        f = Automorphism.from_text(n, ",".join(str(-j if j % 3 else j)
                                               for j in range(width // 2, 0, -1)))
        vx, vy = to_idempotent(x), to_idempotent(y)
        created = []
        original = DyadicRational.__init__

        def counting_init(self, *args, **kwargs):
            created.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DyadicRational, "__init__", counting_init)
        x * y
        to_idempotent(x)
        from_idempotent(vx)
        componentwise_mul(vx, vy)
        f.apply(x)
        assert created == []
        DyadicRational(1)
        assert created == [(1,)]


def kernel_results(x, y, lam, f):
    """Every value that a kernel result is built for without the public
    constructor's checks, from operands x, y, a scalar and a map."""
    vx, vy = to_idempotent(x), to_idempotent(y)
    return [x + y, x - y, -x, x * y, x.scale(lam),
            MulticomplexNumber.unit(len(x.nums) - 1, x.order),
            vx, from_idempotent(vx), componentwise_mul(vx, vy), f.apply(x)]


def maps(n):
    """Automorphisms of MC(n): a shuffled, sign-flipped component order."""
    N = 1 << (n - 1)
    return st.tuples(st.permutations(range(1, N + 1)),
                     st.lists(st.booleans(), min_size=N, max_size=N)).map(
        lambda ps: Automorphism.from_text(n, ",".join(
            str(-p if flip else p) for p, flip in zip(*ps))))


class TestKernelResults:
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        operands(n), operands(n), dyadics(), maps(n))))
    def test_equal_the_public_constructor(self, case):
        for z in kernel_results(*case):
            cls = type(z)
            assert cls in (MulticomplexNumber, IdempotentVector)
            rebuilt = cls(z.order, z.nums, z.exp)
            assert type(z.nums) is tuple
            assert (z.order, z.nums, z.exp) == (rebuilt.order, rebuilt.nums,
                                                rebuilt.exp)
            assert z == rebuilt and hash(z) == hash(rebuilt)


def loop_split(nums, n):
    """The idempotent split one level at a time over nested index loops:
    the reference for the table-driven kernel."""
    v = list(nums)
    width = len(v)
    for level in range(n, 1, -1):
        half = 1 << (level - 1)
        quarter = half >> 1
        for base in range(0, width, 2 * half):
            for j in range(base, base + quarter):
                a, a2 = v[j], v[j + quarter]
                b, b2 = v[j + half], v[j + half + quarter]
                v[j], v[j + quarter] = a + b2, a2 - b
                v[j + half], v[j + half + quarter] = a - b2, a2 + b
    return v


def loop_merge(nums, n):
    """Inverse of loop_split times 2^(n-1), one level at a time."""
    v = list(nums)
    width = len(v)
    for level in range(2, n + 1):
        half = 1 << (level - 1)
        quarter = half >> 1
        for base in range(0, width, 2 * half):
            for j in range(base, base + quarter):
                a, a2 = v[j], v[j + quarter]
                b, b2 = v[j + half], v[j + half + quarter]
                v[j], v[j + quarter] = a + b, a2 + b2
                v[j + half], v[j + half + quarter] = b2 - a2, a - b
    return v


def big_vector(rnd, n, bits=200):
    """2^n coefficients up to +-2^bits, a fifth of them zero."""
    return [0 if rnd.random() < 0.2 else rnd.randint(-(1 << bits), 1 << bits)
            for _ in range(1 << n)]


class TestTransformKernels:
    @given(st.integers(1, 10), st.integers(0, 200), st.randoms(use_true_random=False))
    def test_equal_the_loops(self, n, bits, rnd):
        x = big_vector(rnd, n, bits)
        assert _split(x, n) == loop_split(x, n)
        assert _merge(x, n) == loop_merge(x, n)
        assert _merge(_split(x, n), n) == [a << (n - 1) for a in x]

    @pytest.mark.parametrize("n", [12, 16])
    def test_large_orders_equal_the_loops(self, n):
        x = big_vector(random.Random(n), n)
        assert _split(x, n) == loop_split(x, n)
        assert _merge(x, n) == loop_merge(x, n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_each_level_pair_covers_every_index_once(self, n):
        groups, tail = _butterflies(n)
        width = 1 << n
        pairs = (n - 1) // 2
        assert len(groups) == pairs * (width // 8)
        for p in range(pairs):
            s = 1 << (n - 2 * p - 3)
            chunk = groups[p * width // 8:(p + 1) * width // 8]
            assert sorted(i for g in chunk for i in g) == list(range(width))
            assert all(g == tuple(range(g[0], g[0] + 8 * s, s)) for g in chunk)
        if n % 2:
            assert tail == ()
        else:
            assert sorted(i for g in tail for i in g) == list(range(width))
            assert all(g == tuple(range(g[0], g[0] + 4)) for g in tail)

    def test_the_last_four_orders_are_kept(self):
        _butterflies.cache_clear()
        for n in (3, 6, 7, 8, 3, 6, 7, 8, 2, 3, 4, 5, 2, 3, 4, 5):
            _butterflies(n)
        assert _butterflies.cache_info().misses == 8

    def test_evicted_table_is_released(self):
        _butterflies.cache_clear()
        tracemalloc.start()
        try:
            _butterflies(14)
            built, _ = tracemalloc.get_traced_memory()
            for n in range(1, 5):
                _butterflies(n)
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # freed tuples stay on the interpreter's free lists, up to 2,000
        # of each length: 0.35 MB here
        assert built > 1_500_000 and left < built // 4

    def test_table_memory(self):
        # the tuples share one range's ints: a 4-tuple per butterfly, each
        # with its own ints, would hold 10.8 MB at this order
        tracemalloc.start()
        try:
            table = _butterflies.__wrapped__(14)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table[0]) == 6 << 11 and len(table[1]) == 1 << 12
        assert held < 3_000_000
