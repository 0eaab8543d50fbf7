"""Exact counting formulas for automorphisms and involutions of MC(n).

Closed forms sum their term ratios by binary splitting, quasi-linear in the
size of the count; recursions take O(N) big-integer steps, and brute-force
cross-checks live in the oracle module.  N = 2^(n-1) is the number of
idempotent components of MC(n), whose automorphisms permute N signed symbols.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Sequence

from .mc_core import _at_least, _n_components

__all__ = [
    "count_automorphisms",
    "count_involutions",
    "count_signed_involutions",
    "g_sequence",
    "count_p_involutions",
    "count_r_involutions",
    "count_signed_r_involutions",
    "count_preserving",
    "count_subspaces_containing_all_ones",
    "count_independent_image_tuples",
    "asymptotic_estimate",
    "cycle_types_with_parts_dividing",
]

_LEAF = 32  # terms that _term_ratio_sum adds by a plain loop at a leaf


def count_automorphisms(n: int) -> int:
    """Number of real-linear ring automorphisms of MC(n): 2^N * N!."""
    N = _n_components(n)
    return math.factorial(N) << N


def _term_ratio_tree(pairs: Iterator, halve: int, K: int, right: bool) -> tuple:
    """(P, Q, T) of _term_ratio_sum's node over the next K (num, den) pairs
    of an iterator the nodes share from left to right, so a leaf copies
    nothing; P is None on the right edge, where no merge reads it."""
    if K <= _LEAF:
        P, Q, T = 1, 1, 0
        for a, b in itertools.islice(pairs, K):
            P *= a
            T = (T * b << halve) + P
            Q *= b
        return P, Q, T
    m = K // 2
    P1, Q1, T1 = _term_ratio_tree(pairs, halve, m, False)
    P2, Q2, T2 = _term_ratio_tree(pairs, halve, K - m, right)
    return (None if right else P1 * P2, Q1 * Q2,
            (T1 * Q2 << halve * (K - m)) + P1 * T2)


def _term_ratio_sum(shift: int, nums: Sequence[int], dens: Sequence[int],
                    halve: int = 0) -> int:
    """t_0 + ... + t_K, K = len(nums), for t_0 = 2^shift >= 2^(halve K) and
    t_(k+1) = t_k nums[k] / (dens[k] 2^halve), by binary splitting (Haible &
    Papanikolaou, ANTS 1998): the node over terms (i, j] holds the products
    P of nums[i:j] and Q of dens[i:j] and T = Q 2^(halve (j-i)) sum t_m/t_i,
    from a plain loop up to _LEAF terms (_term_ratio_tree).  O(M(L) log K)
    for L bits, M(L) the Karatsuba product, where K long divisions take
    O(K L); the one exact division at the end is CPython 3.11's schoolbook
    O(L^2).
    """
    _, Q, T = _term_ratio_tree(zip(nums, dens), halve, len(nums), True)
    s = halve * len(nums)
    total, rem = divmod(((Q << s) + T) << (shift - s), Q)
    assert rem == 0, "term ratio left a remainder"
    return total


def count_signed_involutions(N: int) -> int:
    """Signed permutations on N symbols squaring to the identity.

    Closed form: the sum over k of t_k = N! * 2^(N-2k) / (k! * (N-2k)!),
    where k runs over the number of 2-cycles.  Each term comes from the one
    before by t_(k+1) = t_k * (N-2k)(N-2k-1) / (4(k+1)), starting from
    t_0 = 2^N, and _term_ratio_sum adds them: 0.1 ms at N = 512, 3 ms at
    N = 4096 and 2.3 to 2.8 s at N = 131072 (n = 18), 70% of it the division.
    """
    N = _at_least(N, 1, "N")
    return _term_ratio_sum(N, [m * (m - 1) for m in range(N, 1, -2)],
                           range(1, N // 2 + 1), halve=2)


def count_involutions(n: int) -> int:
    """Number of involutions of MC(n), by the closed-form sum."""
    return count_signed_involutions(_n_components(n))


def g_sequence(m: int) -> int:
    """m-th term of the recursion g(1)=2, g(2)=6, g(m)=2g(m-1)+(2m-2)g(m-2).

    g(m) counts signed involutions on m symbols; computed by the recursion
    (deliberately a separate route from count_signed_involutions).
    """
    m = _at_least(m, 1, "m")
    a, b = 2, 6  # g(1), g(2)
    if m == 1:
        return a
    for i in range(3, m + 1):
        a, b = b, 2 * b + (2 * i - 2) * a
    return b


def _is_odd_prime(p: int) -> bool:
    return p >= 3 and p % 2 == 1 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def count_p_involutions(n: int, p: int) -> int:
    """Number of automorphisms f of MC(n) with f^p = identity, p an odd prime.

    Closed form: the sum over k of t_k = N! * 2^((p-1)k) / (k! * p^k * (N-pk)!),
    k being the number of p-cycles.  Each term comes from the one before by
    t_(k+1) = t_k * 2^(p-1) * (N-pk)!/(N-pk-p)! / (p(k+1)), starting from
    t_0 = 1, and _term_ratio_sum adds them: a separate route from the
    divisor recurrence of count_signed_r_involutions.
    """
    p = operator.index(p)
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    N = _n_components(n)
    return _term_ratio_sum(0, [math.perm(N - p * k, p) << (p - 1) for k in range(N // p)],
                           range(p, N + 1, p))


def _divisors_up_to(r: int, cap: int) -> list[int]:
    return [d for d in range(1, min(r, cap) + 1) if r % d == 0]


def cycle_types_with_parts_dividing(N: int, r: int) -> Iterator[dict[int, int]]:
    """All cycle types of S_N whose cycle lengths each divide r, each as a
    dict from cycle length to its multiplicity, with no zero entries."""
    parts = _divisors_up_to(_at_least(r, 1, "r"), _at_least(N, 1, "N"))

    def rec(remaining: int, idx: int,
            current: dict[int, int]) -> Iterator[dict[int, int]]:
        if remaining == 0:
            yield dict(current)
            return
        if idx < 0:
            return
        k = parts[idx]
        for m in range(remaining // k, -1, -1):
            if m:
                current[k] = m
            yield from rec(remaining - k * m, idx - 1, current)
            current.pop(k, None)

    yield from rec(N, len(parts) - 1, {})


def count_signed_r_involutions(N: int, r: int) -> int:
    """Signed permutations pi on N symbols with pi^r = identity.

    A cycle of length d dividing r admits all 2^d sign patterns when r/d is
    even, and only the 2^(d-1) patterns with positive sign product when r/d
    is odd (a negative product doubles the order to 2d).  Choosing the cycle
    through the last symbol gives the recurrence (Chowla, Herstein & Moore,
    Canad. J. Math. 3, 1951)

        a(0) = 1,  a(m) = sum over d | r, d <= m of w_d * (m-1)!/(m-d)! * a(m-d)

    with w_d = 2^d or 2^(d-1) as above: O(N * tau(r)) big-integer steps,
    tau(r) being the number of divisors of r.  Only the last max(d) values
    of a are kept.
    """
    N, r = _at_least(N, 1, "N"), _at_least(r, 1, "r")
    parts = [(d, d - ((r // d) % 2)) for d in _divisors_up_to(r, N)]
    window = parts[-1][0]
    recent = [0] * window  # recent[m % window] holds a(m)
    recent[0] = 1
    for m in range(1, N + 1):
        total = 0
        for d, shift in parts:
            if d > m:
                break
            total += (math.perm(m - 1, d - 1) << shift) * recent[(m - d) % window]
        recent[m % window] = total
    return recent[N % window]


def count_r_involutions(n: int, r: int) -> int:
    """Number of automorphisms f of MC(n) with f^r = identity."""
    return count_signed_r_involutions(_n_components(n), r)


def count_subspaces_containing_all_ones(k: int, n: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n containing (1,..,1).

    Product form: prod over j=1..k-1 of (2^n - 2^j)/(2^k - 2^j); equals 1
    for k = 0 or 1 by convention (the empty product).
    """
    if not 0 <= operator.index(k) <= operator.index(n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = math.prod((1 << n) - (1 << j) for j in range(1, k))
    den = math.prod((1 << k) - (1 << j) for j in range(1, k))
    assert num % den == 0
    return num // den


def count_independent_image_tuples(k: int, n: int) -> int:
    """Number of ordered linearly independent (n-k)-tuples in GF(2)^k.

    Product form: prod over j=0..n-k-1 of (2^k - 2^j); empty product = 1.
    """
    if not 0 <= operator.index(k) <= operator.index(n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return math.prod((1 << k) - (1 << j) for j in range(n - k))


def count_preserving(n: int) -> int:
    """Number of involutions of MC(n) sending each unit i_k to a signed
    canonical unit.

    Sum over kernel dimensions k = ceil(n/2)..n of t_k = S(k) T(k) 2^k, S and
    T the two counts above, which build t_k for the first k only; then
    S(k+1)/S(k) = (2^(n-k)-1)/(2^k-1) and T(k+1)/T(k) = (2^(k+1)-1) /
    ((2^(2k-n+1)-1)(2^(2k-n+2)-1) 2^(n-k-1)): O(n) big-integer steps on
    O(n^2) bits, 0.1 s at n = 520.
    """
    n = _at_least(n, 1, "n")
    first = (n + 1) // 2
    term = total = (count_subspaces_containing_all_ones(first, n)
                    * count_independent_image_tuples(first, n) << first)
    for k in range(first, n):
        up = ((1 << n - k) - 1) * ((1 << k + 1) - 1) << 1
        down = ((1 << k) - 1) * ((1 << 2 * k - n + 1) - 1) * ((1 << 2 * k - n + 2) - 1)
        term, rem = divmod(term * up, down << n - k - 1)
        assert rem == 0, "term ratio left a remainder"
        total += term
    return total


def asymptotic_estimate(n: int) -> mpmath.mpf:
    """Log of the large-n estimate of count_involutions(n).

    The estimate is (2^n/e)^(2^(n-2)) * e^(2^(n/2)) / sqrt(2e); the value
    returned is its natural log, computed at 60 decimal digits:
    2^(n-2) * (n ln 2 - 1) + 2^(n/2) - (ln 2 + 1)/2.
    """
    import mpmath

    n = _at_least(n, 1, "n")
    with mpmath.workdps(60):
        ln2 = mpmath.ln(2)
        lead = mpmath.mpf(2) ** (n - 2) * (n * ln2 - 1)
        middle = mpmath.mpf(2) ** (mpmath.mpf(n) / 2)
        return lead + middle - (ln2 + 1) / 2
