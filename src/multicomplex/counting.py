"""Exact counting formulas for automorphisms and involutions of MC(n).

Everything here is closed-form or recursive big-integer arithmetic; the
brute-force cross-checks live in the oracle module.  Throughout, N denotes
2^(n-1), the number of idempotent components of MC(n), so that automorphism
counts are counts of signed permutations on N symbols.
"""
from __future__ import annotations

import math
from typing import Iterator

from .idempotent import _n_components

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


def count_automorphisms(n: int) -> int:
    """Number of real-linear ring automorphisms of MC(n): 2^N * N!."""
    N = _n_components(n)
    return (1 << N) * math.factorial(N)


def count_signed_involutions(N: int) -> int:
    """Signed permutations on N symbols squaring to the identity.

    Closed form: the sum over k of t_k = N! * 2^(N-2k) / (k! * (N-2k)!),
    where k runs over the number of 2-cycles.  Each term comes from the one
    before by t_(k+1) = t_k * (N-2k)(N-2k-1) / (4(k+1)), starting from
    t_0 = 2^N, so the sum costs O(N) big-integer steps.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    term = 1 << N
    total = term
    for k in range(N // 2):
        term, rem = divmod(term * ((N - 2 * k) * (N - 2 * k - 1)), 4 * (k + 1))
        assert rem == 0, "term ratio left a remainder"
        total += term
    return total


def count_involutions(n: int) -> int:
    """Number of involutions of MC(n), by the closed-form sum."""
    return count_signed_involutions(_n_components(n))


def g_sequence(m: int) -> int:
    """m-th term of the recursion g(1)=2, g(2)=6, g(m)=2g(m-1)+(2m-2)g(m-2).

    g(m) counts signed involutions on m symbols; computed by the recursion
    (deliberately a separate route from count_signed_involutions).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    a, b = 2, 6  # g(1), g(2)
    if m == 1:
        return a
    for i in range(3, m + 1):
        a, b = b, 2 * b + (2 * i - 2) * a
    return b


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def count_p_involutions(n: int, p: int) -> int:
    """Number of automorphisms f of MC(n) with f^p = identity, p an odd prime.

    Closed form: the sum over k of t_k = N! * 2^((p-1)k) / (k! * p^k * (N-pk)!),
    k being the number of p-cycles.  Each term comes from the one before by
    t_(k+1) = t_k * 2^(p-1) * (N-pk)!/(N-pk-p)! / (p(k+1)), starting from
    t_0 = 1: a separate route from the divisor recurrence of
    count_signed_r_involutions.
    """
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    N = _n_components(n)
    term = total = 1
    for k in range(N // p):
        term, rem = divmod(term * math.perm(N - p * k, p) << (p - 1), p * (k + 1))
        assert rem == 0, "term ratio left a remainder"
        total += term
    return total


def _divisors_up_to(r: int, cap: int) -> list[int]:
    return [d for d in range(1, min(r, cap) + 1) if r % d == 0]


def cycle_types_with_parts_dividing(N: int, r: int) -> Iterator[dict[int, int]]:
    """All cycle types of S_N whose cycle lengths each divide r, each as a
    dict from cycle length to its multiplicity, with no zero entries."""
    parts = _divisors_up_to(r, N)

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
    if N < 1:
        raise ValueError("N must be at least 1")
    if r < 1:
        raise ValueError("r must be at least 1")
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
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for j in range(1, k):
        num *= (1 << n) - (1 << j)
        den *= (1 << k) - (1 << j)
    assert num % den == 0
    return num // den


def count_independent_image_tuples(k: int, n: int) -> int:
    """Number of ordered linearly independent (n-k)-tuples in GF(2)^k.

    Product form: prod over j=0..n-k-1 of (2^k - 2^j); empty product = 1.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = 1
    for j in range(n - k):
        out *= (1 << k) - (1 << j)
    return out


def count_preserving(n: int) -> int:
    """Number of involutions of MC(n) sending each unit i_k to a signed
    canonical unit.

    Sum over kernel dimensions k from ceil(n/2) to n of
    subspace_count * image_tuple_count * 2^k.
    """
    _n_components(n)
    total = 0
    for k in range((n + 1) // 2, n + 1):
        total += (
            count_subspaces_containing_all_ones(k, n)
            * count_independent_image_tuples(k, n)
            * (1 << k)
        )
    return total


def asymptotic_estimate(n: int) -> mpmath.mpf:
    """Log of the large-n estimate of count_involutions(n).

    The estimate is (2^n/e)^(2^(n-2)) * e^(2^(n/2)) / sqrt(2e); the value
    returned is its natural log, computed at 60 decimal digits:
    2^(n-2) * (n ln 2 - 1) + 2^(n/2) - (ln 2 + 1)/2.
    """
    import mpmath

    _n_components(n)
    with mpmath.workdps(60):
        ln2 = mpmath.ln(2)
        lead = mpmath.mpf(2) ** (n - 2) * (n * ln2 - 1)
        middle = mpmath.mpf(2) ** (mpmath.mpf(n) / 2)
        return lead + middle - (ln2 + 1) / 2
