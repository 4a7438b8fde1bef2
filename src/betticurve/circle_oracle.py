"""Exact first-Betti-number oracle for uniform samples on the circle.

For n uniform points on the unit-circumference circle and a scale 0 < r < 1/3
the VR complex is either homotopy equivalent to a circle or to a disjoint
union of contractible arcs, so the first Betti number is Bernoulli and both
its expectation and variance follow from a single probability.  That
probability has a closed form built from the (unnormalized) Irwin-Hall CDF

    g(n, x) = sum_k (-1)^k C(n, k) (x - k)_+^n        (equals n! * CDF(x))

via

    p(n, r) = n r^(n-1) [ Int_0^r g(n-1, (1-x)/r) dx  -  r g(n-1, 1/r - 1) ].

The integral is evaluated in closed form: substituting u = (1-x)/r turns the
integrand into a piecewise polynomial whose antiderivative is

    G(m, u) = sum_k (-1)^k C(m, k) (u - k)_+^(m+1) / (m+1),

so, with m = n-1, u1 = 1/r and u0 = u1 - 1,

    p(n, r) = n r^n [ G(m, u1) - G(m, u0) - g(m, u0) ].

The float r is exactly the rational a/b it represents, with b a power of
two, so u1 = b/a and u0 = (b-a)/a: every (u - k) is an integer over the one
common denominator a, with (u1 - k) = (b - k a)/a and (u0 - k) = (b - (k+1) a)/a.
The prefactor n r^n = n a^n / b^n cancels the a^n of the powers in G and its
1/(m+1) = 1/n, and leaves n a in front of a^m g.  With x_+ = max(x, 0) and
every sum over k = 0..m (which also gives g its saturation at m! for u0 >= m),

    p(n, r) = D / b^n,
    D = sum_k (-1)^k C(m, k) [ (b - k a)_+^n - (b - (k+1) a)_+^n
                               - n a (b - (k+1) a)_+^m ].

Collect the terms in (b - j a).  By Pascal's rule C(m, j) + C(m, j-1) =
C(n, j), and n C(m, j-1) = j C(n, j), so the coefficient of
(-1)^j C(n, j) (b - j a)_+^m is (b - j a) + j a = b, and

    p(n, r) = sum_{j=0..min(b//a, n)} (-1)^j C(n, j) (b - j a)^(n-1) / b^(n-1),

which is Stevens' formula sum_j (-1)^j C(n, j) (1 - j r)_+^(n-1) for the
chance that all n gaps between n uniform points on the circle are shorter
than r.  The numerator is an integer sum, with no gcd taken anywhere, and an
int/int division is correctly rounded: the float is the exact p rounded once,
as it would be from rational arithmetic.

Not every term is needed.  Write t_j = C(n, j) (b - j a)^(n-1), B = b^(n-1)
and S_j for the partial sum through j.  The ratio

    t_(j+1) / t_j = (n - j)/(j + 1) * (1 - a/(b - j a))^(n-1)

is a product of two nonnegative factors that do not grow with j, so the
magnitudes rise, if at all, only before they fall.  A term t_j < t_0 = B
with j >= 1 therefore lies past the peak, no later term is larger, and the
alternating tail from j on puts p B between S_(j-1) and S_j.  Correctly
rounded division is monotone, so when S_(j-1)/B and S_j/B are the same
float, bit for bit, p rounds to that float and the sum stops: the bits, not
==, since -0.0 == 0.0 while p itself is never negative.  Waiting for t_j < B
has a second use: the bracket, of width t_j and holding p in [0, 1], then
lies in (-1, 2), so no float division is spent on the huge partial sums
where the terms cancel, and none can overflow (near r = 1/n the terms reach
about e^(n/e)).  Above the coverage threshold a few terms fix the float;
just above r = 1/n every term is still needed.  When n r <= 1 the n gaps,
which sum to 1, cannot all be shorter than r: p is exactly 0, which no
bracket can confirm, so it is returned before any power.
"""

from __future__ import annotations

import math

# Exact arithmetic has no precision ceiling; this cap only bounds runtime.
MAX_ORACLE_N = 1000


def in_oracle_domain(r: float) -> bool:
    """Whether the float r lies in the oracle's domain 0 < r < 1/3, exactly
    (the float nearest 1/3 lies below it and is inside)."""
    r = float(r)
    if not 0 < r < 1:  # false for NaN and infinity too
        return False
    a, b = r.as_integer_ratio()
    return 3 * a < b


def _stevens_sum(n: int, a: int, b: int) -> tuple[float, int]:
    """p(n, a/b) and the number of terms it took."""
    if n * a <= b:
        return 0.0, 0
    denom = 1 << (b.bit_length() - 1) * (n - 1)  # b^(n-1): b is a power of two
    total = 0
    binom = 1
    for k in range(min(b // a, n) + 1):
        term = binom * (b - k * a) ** (n - 1)
        last = total
        total += -term if k & 1 else term
        if k and term < denom:
            lo, hi = last / denom, total / denom
            if lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi):
                return hi, k + 1
        binom = binom * (n - k) // (k + 1)
    return total / denom, k + 1


def circle_homotopy_prob(n: int, r: float) -> float:
    """Probability that the VR complex of n uniform circle points at scale r
    is homotopy equivalent to the circle.  Valid for 0 < r < 1/3 only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ORACLE_N:
        raise ValueError(f"oracle evaluation is capped at n <= {MAX_ORACLE_N}")
    if not in_oracle_domain(r):
        raise ValueError(f"scale r={r} outside the oracle's validity domain (0, 1/3)")
    a, b = float(r).as_integer_ratio()
    return _stevens_sum(n, a, b)[0]

