"""Exact Betti numbers of each circle sample, from its circular gaps.

For 0 <= t < 1/3 the Vietoris-Rips complex of a circle sample is homotopy
equivalent to a circle when no gap between consecutive points is longer
than t, and otherwise to a disjoint union of contractible pieces, one per
such gap (see :mod:`betticurve.circle_oracle`).  With G the number of gaps
not <= t: b0 = G + [G = 0], b1 = [G = 0], chi = G and b_k = 0 for k >= 2.
For 0 < t < 1/4 the open arcs of radius t are a good cover, so by the nerve
theorem the circle Cech complex has the same numbers, with G the gaps not
< 2t.  These hold at any n, so they check every path far past the sizes the
per-scale reference reaches.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from betticurve.complexes import cech_filtration_circle, vr_euler_curve, vr_filtration
from betticurve.estimator import VR, sample_curve
from betticurve.homology import betti_curve, betti_invariant
from betticurve.manifolds import circle, sample

SEED = 17
GRID = [float(t) for t in np.linspace(0.02, 0.32, 16)]  # the benchmark's curve grid
CECH_GRID = [t for t in GRID if t < 0.25]
SIZES = (1, 2, 3, 50, 100, 200, 300)


def gaps(s):
    """The circular gaps, by the float expressions of ``pairwise_distances``:
    a gap <= 1/2 equals its pair's distance bit for bit, so ties at t
    agree."""
    srt = np.sort(s.points)
    return np.append(np.diff(srt), 1.0 - (srt[-1] - srt[0]))


def bettis(g, dims):
    """b0 up to b_(dims - 1) with g gaps too long to join; chi is g."""
    return [g + (g == 0), int(g == 0), 0][:dims]


def vr_gaps(s, t):
    return int(np.count_nonzero(~(gaps(s) <= t)))


def cech_gaps(s, t):
    return int(np.count_nonzero(~(gaps(s) < 2.0 * t)))


def check_curves(f, s, count_gaps):
    """The Betti curves that the filtration f of s was built for (b0 up to
    b_(max_dim - 1)), against ``count_gaps(s, t)`` at each of its scales."""
    got = list(zip(*(betti_curve(f, k) for k in range(f.max_dim))))
    assert got == [tuple(bettis(count_gaps(s, t), f.max_dim)) for t in f.grid]


class TestVietorisRips:
    def test_whole_filtration_b0_b1(self):
        for n in SIZES:
            for trial in range(2):
                s = sample(circle(), n, SEED, trial)
                check_curves(vr_filtration(s, GRID, 1), s, vr_gaps)
                # the b1 reduction grows much faster than the edges: at n=300
                # it takes seconds above t=0.2, so keep t n <= 40
                check_curves(vr_filtration(s, [t for t in GRID if t * n <= 40], 2), s, vr_gaps)

    def test_sample_curve_b1(self):
        # the estimator's route, on the whole grid at every n: where the
        # reduction leaves one column, the last step's strong-collapse core
        # says whether it is essential
        for n in SIZES:
            for trial in range(2):
                s = sample(circle(), n, SEED, trial)
                assert sample_curve(s, VR, betti_invariant(1), GRID) == \
                    [bettis(vr_gaps(s, t), 2)[1] for t in GRID]

    def test_euler_curve(self):
        # the full complex, as far up the grid as the default budget allows
        for n, t_max in ((1, 0.32), (2, 0.32), (3, 0.32), (20, 0.32), (40, 0.32), (60, 0.26),
                         (100, 0.12), (200, 0.06)):
            s = sample(circle(), n, SEED, 0)
            grid = [t for t in GRID if t <= t_max]
            assert vr_euler_curve(s, grid) == [vr_gaps(s, t) for t in grid]

    def test_one_scale_core(self):
        for n in SIZES:
            s = sample(circle(), n, SEED, 0)
            for t in (0.02, 0.12, 0.32):
                # b2 counts the 3-simplices, past the budget at t=0.32 and n=300
                dims = 3 if t * n <= 40 else 2
                assert [sample_curve(s, VR, betti_invariant(k), [t])[0] for k in range(dims)] \
                    == bettis(vr_gaps(s, t), dims)

    def test_one_scale_core_near_coverage(self):
        # the coverage threshold, where the paper's interval is informative
        for n in (500, 2000):
            s = sample(circle(), n, SEED, 0)
            t = math.log(n) / n
            assert [sample_curve(s, VR, betti_invariant(k), [t])[0] for k in (0, 1)] == \
                bettis(vr_gaps(s, t), 2)


class TestCech:
    def test_whole_filtration_b0_b1_b2(self):
        for n in (1, 2, 3, 20, 40):
            s = sample(circle(), n, SEED, 0)
            check_curves(cech_filtration_circle(s, CECH_GRID, 3), s, cech_gaps)
        for n in (50, 100):
            s = sample(circle(), n, SEED, 0)
            check_curves(cech_filtration_circle(s, CECH_GRID[:6], 2), s, cech_gaps)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
def test_ties_at_a_gap(n, seed, data):
    # scales equal to a gap (half a gap for Cech), where <= and < differ
    s = sample(circle(), n, seed, 0)
    g = sorted(set(gaps(s).tolist()))
    tied = data.draw(st.lists(st.sampled_from(g), min_size=1, max_size=3))
    free = data.draw(st.lists(st.floats(0.0, 0.33), max_size=3))
    grid = sorted({t for t in tied + free if t < 1 / 3})
    if grid:
        check_curves(vr_filtration(s, grid, 2), s, vr_gaps)
        t = grid[-1]
        assert [sample_curve(s, VR, betti_invariant(k), [t])[0] for k in (0, 1)] == \
            bettis(vr_gaps(s, t), 2)
    cech = sorted({t / 2.0 for t in tied} | {t for t in free if t > 0})
    cech = [t for t in cech if 0 < t < 0.25]
    if cech:
        check_curves(cech_filtration_circle(s, cech, 3), s, cech_gaps)
