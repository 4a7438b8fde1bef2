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
than r.  The numerator is one integer sum of at most 1/r + 1 terms, with no
gcd taken anywhere, and the one int/int division is correctly rounded: the
float is the exact p rounded once, as it would be from rational arithmetic.
"""

from __future__ import annotations

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


def _alternating_sum(n: int, u: int, a: int, e: int) -> int:
    """sum_{k=0..n} (-1)^k C(n, k) (u - k a)_+^e, in integers."""
    total = 0
    binom = 1
    for k in range(min(u // a, n) + 1):
        term = binom * (u - k * a) ** e
        total += -term if k & 1 else term
        binom = binom * (n - k) // (k + 1)
    return total


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
    return _alternating_sum(n, b, a, n - 1) / b ** (n - 1)

