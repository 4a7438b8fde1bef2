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
bracket can confirm, so it is returned before any power.  This stopped
sum is `_stevens_sum`: the oracle does not call it, and it stays as the
independent reference that the ladder below is checked against.

The other side of the identity.  The sum has J + 1 terms, J = b//a, but an
n-th difference of a polynomial of degree below n vanishes: with the shift
E f(j) = f(j + 1), Delta = E - 1 lowers the degree by one, so

    sum_{j=0..n} (-1)^(n-j) C(n, j) f(j) = ((E - 1)^n f)(0) = 0,

and f(j) = (b - j a)^(n-1) gives sum_{j=0..n} (-1)^j C(n, j) (b - j a)^(n-1)
= 0.  For j <= J, b - j a >= 0 and (.)_+ changes nothing, so the numerator
N = p B is

    N = sum_{j=0..J} (-1)^j t_j = - sum_{j=J+1..n} (-1)^j C(n, j) (b - j a)^(n-1),

n - J terms instead of J + 1: one term just above r = 1/n, where J = n - 1.
Put i = n - j and c = n a - b.  Then b - j a = -(c - i a), c - i a = j a - b
> 0 for j > J, and (-1)^j (-1)^(n-1) = -(-1)^i, so the complement is

    N = sum_{i=0..n-J-1} (-1)^i C(n, i) (c - i a)_+^(n-1),

Stevens' sum with 1 replaced by n r - 1.  Each side, with base c = b or
c = n a - b, has the ratio above with c for b, so on each the magnitudes
rise and then fall, and a term t_i <= t_(i-1) with i >= 1 is past the peak
(the ratio is at most 1 from i - 1 on): the alternating tail puts N between
S_(i-1) and S_i.  On Stevens' side t_j < t_0 implies it.  Below r = 2/n the
complement is the shorter side, and its bases are below b.

A precision ladder (Ziv's strategy: ACM TOMS 17(3), 1991).  An exact power
is e (n-1) bits wide for a base of e bits, while p is one double.  Each rung
of the ladder is one call of `_bracket`, which sums the shorter side's terms
t_i / B = C(n, i) ((c - i a)/b)^(n-1) as integers over a scale `one`.  A
rung of P mantissa bits sums at the fixed scale one = 2^1100 (`_SCALE`),
below the smallest subnormal 2^-1074, with an error bound; the last rung
sums exact powers over one = B, with no error.  Write u = 2^(1-P).

  - `_power` raises x to the e by squaring, cutting every product back to P
    bits.  A cut floor(m / 2^d) 2^d of an m with P + d bits lies in
    (m / (1 + u), m]: the dropped part is below 2^d and the kept mantissa
    is at least 2^(P-1).  So the computed m 2^s never exceeds x^e, and it
    is short by at most a factor (1 + u)^k, where each squaring doubles k,
    a multiplication by the base adds the base's cut, and each cut adds 1.
    After the leading bits e' of e, k <= 2 e' - 1: it holds for e' = 1,
    and a step to e'' = 2 e' + bit gives k'' <= 2 k + bit + 1
    <= 4 e' - 1 + bit <= 2 e'' - 1.
    Hence x^e <= m 2^s (1 + u)^(2e) <= m 2^s e^(2eu) <= m 2^s (1 + e 2^(3-P)),
    as e^v <= 1 + 2v for 0 <= v <= 1 (2eu <= 1 while e <= 2^(P-2)).
  - The term at scale 2^-1100 is q = floor(C(n, i) m 2^(s + 1100) / B),
    with C(n, i) exact, so its true value V lies in
    [q, (q + 1)(1 + (n-1) 2^(3-P))) and
    |V - q| < 2 + floor((q + 1) (n-1) / 2^(P-3)) = err_i.
  - The true partial sums lie within the summed err_i of the computed ones.

The bracket is S_(i-1) to S_i once the terms certainly fall (q_i + err_i <=
q_(i-1)), or S_J once every term is in, widened by the summed error and
clamped to [0, one], since 0 <= p <= 1.  Both ends are integers over one
and int/int is correctly rounded, so when they round to the same float p
rounds to it too: the float the exact sum gives, bit for bit.  The clamp
keeps the lower end at +0.0, so an underflowing p is +0.0 as well, and keeps
every division in range where the exact terms cancel.  If the ends differ,
the next rung doubles P.  A P-bit rung costs a few Python operations per
squaring, while an exact power costs its width, so the ladder climbs
P = 128, 256, ... only while the exact terms are wider than 24 P bits
(`_PASS_WIDTH_RATIO`), and then takes the exact rung, which always decides:
its bracket closes on S_J at the latest.  So the ladder grows with n: at
n = 1000 it may climb from 128 to 2048 bits, while for n up to ~55 at
r >= 0.02 the exact rung, the faster one there, is the only one.
"""

from __future__ import annotations

import math
import operator

# Exact arithmetic has no precision ceiling; this cap only bounds runtime.
# At n = 1000 the slowest points lie between r = 1/n and 3/n, where the terms
# of both sides cancel to a tiny p: near r = 2/n the ladder climbs to 1024-bit
# mantissas and 15-25 ms (the exact sum alone: 0.65-0.91 s just above 1/n).
MAX_ORACLE_N = 1000
_SCALE = 1100  # a P-bit rung sums at 2^-1100, below the smallest subnormal 2^-1074
_PRECISION = 128  # mantissa bits of the first rung; each further rung doubles them
_PASS_WIDTH_RATIO = 24  # a P-bit rung runs while the exact terms are wider than 24 P bits


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


def _shorter_side(n: int, a: int, b: int) -> int:
    """The base c of the side with fewer terms: b, or n a - b for the
    complement (n - b//a terms against b//a + 1)."""
    return n * a - b if 2 * (b // a) >= n else b


def _power(x: int, e: int, precision: int) -> tuple[int, int]:
    """(m, s) with m below 2^precision and m 2^s <= x^e <= m 2^s (1 +
    2^(1-precision))^(2e), for e >= 1."""
    shift = max(x.bit_length() - precision, 0)
    base = x >> shift
    m, s = base, shift
    for bit in bin(e)[3:]:
        m *= m
        s += s
        if bit == "1":
            m *= base
            s += shift
        cut = m.bit_length() - precision
        if cut > 0:
            m >>= cut
            s += cut
    return m, s


def _bracket(n: int, a: int, b: int, c: int,
             precision: int | None = None) -> tuple[int, int, int]:
    """Integers lo <= p(n, a/b) one <= hi from the side with base c (b or
    n a - b), and the scale one: 2^1100 at `precision` mantissa bits, or
    B = b^(n-1) with exact powers and no error when precision is None.  It
    stops as soon as lo and hi round to one float.  Needs n a > b."""
    exact = precision is None
    bits = (b.bit_length() - 1) * (n - 1)  # B = b^(n-1) = 2^bits: b is a power of two
    one = 1 << (bits if exact else _SCALE)
    shift = _SCALE - bits  # a P-bit rung divides by B
    total = err = last_q = 0
    falling = False
    binom = 1
    for i in range(min(-(-c // a), n + 1)):  # the terms with c - i a > 0
        if exact:
            q, term_err = binom * (c - i * a) ** (n - 1), 0
        else:
            m, s = _power(c - i * a, n - 1, precision)
            s += shift
            q = binom * m << s if s >= 0 else binom * m >> -s
            term_err = 2 + ((q + 1) * (n - 1) >> (precision - 3))
        last = total
        total += -q if i & 1 else q
        err += term_err
        falling = falling or (i > 0 and q + term_err <= last_q)
        if falling:
            lo, hi = max(min(last, total) - err, 0), min(max(last, total) + err, one)
            if lo / one == hi / one:
                return lo, hi, one
        last_q = q
        binom = binom * (n - i) // (i + 1)
    return max(total - err, 0), min(total + err, one), one


def circle_homotopy_prob(n: int, r: float) -> float:
    """Probability that the VR complex of n uniform circle points at scale r
    is homotopy equivalent to the circle.  Valid for 0 < r < 1/3 only."""
    n = operator.index(n)  # a numpy integer would overflow in the products
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ORACLE_N:
        raise ValueError(f"oracle evaluation is capped at n <= {MAX_ORACLE_N}")
    if not in_oracle_domain(r):
        raise ValueError(f"scale r={r} outside the oracle's validity domain (0, 1/3)")
    a, b = float(r).as_integer_ratio()
    if n * a <= b:
        return 0.0
    c = _shorter_side(n, a, b)
    precision = _PRECISION
    while _PASS_WIDTH_RATIO * precision < c.bit_length() * (n - 1):
        lo, hi, one = _bracket(n, a, b, c, precision)
        if lo / one == hi / one:
            return lo / one
        precision *= 2
    lo, _, one = _bracket(n, a, b, c)  # the exact rung: no error, so it always decides
    return lo / one
