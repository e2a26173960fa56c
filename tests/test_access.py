import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from pilothop.access import (
    ActivationLaw,
    CollisionLaw,
    binom_pmf,
    binom_windows,
    sample_active_set,
    truncate_support,
)


def test_activation_certain():
    assert np.array_equal(binom_pmf(np.array([3, 4]), 4, 1.0), [0.0, 1.0])


def test_activation_matches_enumeration():
    # brute force over all activation patterns of two devices at p=1/2
    counts = {k: 0 for k in range(3)}
    for pattern in itertools.product([0, 1], repeat=2):
        counts[sum(pattern)] += 1
    assert binom_pmf(np.array([1]), 2, 0.5)[0] == pytest.approx(counts[1] / 4, abs=1e-15)
    # and an asymmetric case against direct probability accounting
    for k in range(4):
        want = sum(
            math.prod(0.3 if on else 0.7 for on in pattern)
            for pattern in itertools.product([0, 1], repeat=3)
            if sum(pattern) == k
        )
        assert binom_pmf(np.array([k]), 3, 0.3)[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p", [1 / 120, 0.05, 1 / 3, 0.5, 0.9, 1 - 2e-6])
def test_binom_pmf_equals_scipy_stats(p):
    # the same saddle-point values scipy.stats gives, up to n = 2000 where a
    # plain log-gamma route would lose ~2e-12 of the unit mass
    for n in (0, 1, 2, 7, 40, 799, 1500, 1999, 2000):
        ks = np.arange(n + 1)
        assert np.array_equal(binom_pmf(ks, n, p), binom.pmf(ks, n, p)), n
    ns = np.arange(1990, 2001)[:, None]
    ks = np.minimum(np.arange(0, 2001, 7), ns)
    assert np.array_equal(binom_pmf(ks, ns, p), binom.pmf(ks, ns, p))


@pytest.mark.parametrize("p", [1e-9, 1e-7, 9.9e-7])
@pytest.mark.parametrize("n", [10**5, 10**6, 10**7])
def test_binom_pmf_keeps_unit_mass_at_small_p(n, p):
    # a log-gamma route loses about n eps of the mass (9e-9 at n = 1e7, p = 1e-7);
    # k <= 200 holds all of it but far less than 1e-100 at these means of at most 10
    assert abs(1.0 - binom_pmf(np.arange(201), n, p).sum()) <= 1e-12


def test_binom_windows_stay_narrow_at_small_p():
    # a window whose band lost mass to rounding would widen to the whole support
    lo, hi, covered, masses = binom_windows([10**6], 3e-7, 1e-12)
    assert hi[0] - lo[0] + 1 == masses[0].size <= 20 and covered[0] >= 1.0 - 1e-12


def test_activation_mean_is_pa_k():
    ks = np.arange(0, 801)
    pm = binom_pmf(ks, 800, 0.05)
    assert float(ks @ pm) == pytest.approx(40.0, abs=1e-9)


def test_activation_out_of_range():
    with pytest.raises(ValueError):
        binom_pmf(np.array([6]), 5, 0.2)
    with pytest.raises(ValueError):
        binom_pmf(np.array([-1]), 5, 0.2)


def test_collision_lone_device():
    for tau_p in (1, 2, 17):
        assert binom_pmf(np.array([0]), 0, 1 / tau_p)[0] == 1.0


def test_collision_mean_41_20():
    cs = np.arange(0, 41)
    pm = binom_pmf(cs, 40, 1 / 20)
    assert float(cs @ pm) == pytest.approx(2.0, abs=1e-10)


def test_collision_matches_enumeration():
    # two other devices choose among two pilots; one collider in 2 of the 4 cases
    hits = sum(1 for choice in itertools.product([0, 1], repeat=2) if sum(c == 0 for c in choice) == 1)
    assert binom_pmf(np.array([1]), 2, 0.5)[0] == pytest.approx(hits / 4, abs=1e-15)


def test_collision_no_reference_device():
    with pytest.raises(ValueError):
        CollisionLaw(0, 10)


@given(K=st.integers(1, 2000), p_a=st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_activation_pmf_sums_to_one(K, p_a):
    pm = binom_pmf(np.arange(0, K + 1), K, p_a)
    assert float(pm.sum()) == pytest.approx(1.0, abs=1e-12)


@given(K_a=st.integers(1, 1500), tau_p=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_collision_pmf_sums_and_mean(K_a, tau_p):
    cs = np.arange(0, K_a)
    pm = binom_pmf(cs, K_a - 1, 1 / tau_p)
    assert float(pm.sum()) == pytest.approx(1.0, abs=1e-12)
    assert float(cs @ pm) == pytest.approx((K_a - 1) / tau_p, abs=1e-10)


def test_truncate_degenerate():
    sup = truncate_support(ActivationLaw(10, 1.0), 1e-9)
    assert (sup.lo, sup.hi, sup.covered_mass) == (10, 10, 1.0)


def _minimal_window_oracle(n, p, eps):
    # independent full-pmf scan: grow greedily from the mode on scipy's pmf
    pm = binom.pmf(np.arange(n + 1), n, p)
    i = j = int(np.argmax(pm))
    mass = pm[i]
    while mass < 1 - eps:
        left = pm[i - 1] if i > 0 else -1.0
        right = pm[j + 1] if j < n else -1.0
        if left >= right:
            i -= 1
            mass += left
        else:
            j += 1
            mass += right
    return i, j, mass


def test_truncate_activation_window():
    law = ActivationLaw(800, 0.05)
    sup = truncate_support(law, 1e-9)
    lo, hi, mass = _minimal_window_oracle(800, 0.05, 1e-9)
    assert (sup.lo, sup.hi) == (lo, hi)
    assert sup.lo <= 40 <= sup.hi
    assert sup.covered_mass == pytest.approx(mass, abs=1e-12)
    dropped = binom.cdf(sup.lo - 1, 800, 0.05) + binom.sf(sup.hi, 800, 0.05)
    assert dropped <= 1e-9


def test_truncate_collision_window():
    sup = truncate_support(CollisionLaw(41, 20), 1e-6)
    lo, hi, _ = _minimal_window_oracle(40, 1 / 20, 1e-6)
    assert (sup.lo, sup.hi) == (lo, hi)
    assert sup.lo <= 2 <= sup.hi


@given(
    K=st.integers(1, 2000),
    p_a=st.floats(1e-6, 1.0 - 1e-6),
    eps=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
)
@settings(max_examples=50, deadline=None)
def test_truncate_never_drops_more_than_eps(K, p_a, eps):
    sup = truncate_support(ActivationLaw(K, p_a), eps)
    dropped = binom.cdf(sup.lo - 1, K, p_a) + binom.sf(sup.hi, K, p_a)
    assert dropped <= eps * (1 + 1e-9)


def test_truncate_returns_when_rounding_keeps_the_target_out_of_reach():
    # the running sum of this pmf, added from the mode outward, tops out
    # below 1 - 1e-15; the window is then the whole band, not an endless loop
    sup = truncate_support(ActivationLaw(2452, 0.7826601293598362), 1e-15)
    assert sup.lo < 0.7826601293598362 * 2452 < sup.hi
    assert 1.0 - 1e-14 < sup.covered_mass < 1.0 - 1e-15


def test_truncate_eps_domain():
    with pytest.raises(ValueError):
        truncate_support(ActivationLaw(10, 0.5), 0.0)
    with pytest.raises(ValueError):
        truncate_support(ActivationLaw(10, 0.5), 1.0)


def test_sample_active_set_degenerate(rng):
    assert sample_active_set(ActivationLaw(50, 0.0), rng).size == 0
    assert np.array_equal(sample_active_set(ActivationLaw(50, 1.0), rng), np.arange(50))


def test_sample_active_set_rate(rng):
    # 10^5 Bernoulli draws at p=0.05; empirical rate within the 3-sigma CI
    K, frames = 1000, 100
    total = sum(sample_active_set(ActivationLaw(K, 0.05), rng).size for _ in range(frames))
    n = K * frames
    ci = 3 * math.sqrt(0.05 * 0.95 / n)
    assert abs(total / n - 0.05) <= ci


def test_empirical_collision_matches_pmf(rng):
    # devices choose pilots uniformly; collider histogram vs the analytic law
    K_a, tau_p, n = 41, 20, 10**5
    picks = rng.integers(0, tau_p, size=(n, K_a), dtype=np.int8)
    colliders = (picks[:, 1:] == picks[:, :1]).sum(axis=1)
    hist = np.bincount(colliders, minlength=K_a) / n
    pm = binom_pmf(np.arange(K_a), K_a - 1, 1 / tau_p)
    tv = 0.5 * float(np.abs(hist - pm).sum())
    assert tv < 0.03
