"""Activation and pilot-collision probability machinery.

Device activation is Bernoulli per device and frame, so the active count
follows Binomial(K, p_a). Conditioned on K_a active devices, the number of
colliders seen by one reference device is Binomial(K_a - 1, 1/tau_p) because
the other active devices pick pilots uniformly and independently.

Masses are evaluated overflow-safe at mMTC populations (K up to 1e5), and
the averaged rate bounds truncate the outer sums to a high-coverage window
around the binomial mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy import stats
from scipy.special import gammaln


@dataclass(frozen=True)
class ActivationLaw:
    """Active-device count law: Binomial(K, p_a)."""

    K: int
    p_a: float

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"device count K must be >= 1, got {self.K}")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError(f"activation probability must lie in [0, 1], got {self.p_a}")

    def mean(self) -> float:
        return self.p_a * self.K

    def variance(self) -> float:
        return self.p_a * self.K * (1.0 - self.p_a)


@dataclass(frozen=True)
class CollisionLaw:
    """Collider-count law for one reference device: Binomial(K_a - 1, 1/tau_p)."""

    K_a: int
    tau_p: int

    def __post_init__(self):
        if self.K_a < 1:
            raise ValueError(f"active count K_a must be >= 1 (no reference device exists), got {self.K_a}")
        if self.tau_p < 1:
            raise ValueError(f"pilot count tau_p must be >= 1, got {self.tau_p}")

    def mean(self) -> float:
        return (self.K_a - 1) / self.tau_p


AnyLaw = Union[ActivationLaw, CollisionLaw]


@dataclass(frozen=True)
class TruncatedSupport:
    """Contiguous integer window [lo, hi] covering at least 1 - eps_tail mass."""

    lo: int
    hi: int
    covered_mass: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty support [{self.lo}, {self.hi}]")
        if not 0.0 < self.covered_mass <= 1.0 + 1e-12:
            raise ValueError(f"covered_mass out of range: {self.covered_mass}")

    def values(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)


def _binom_params(law: AnyLaw) -> tuple[int, float]:
    if isinstance(law, ActivationLaw):
        return law.K, law.p_a
    if isinstance(law, CollisionLaw):
        return law.K_a - 1, 1.0 / law.tau_p
    raise TypeError(f"expected ActivationLaw or CollisionLaw, got {type(law).__name__}")


def binom_pmf(k, n: int, p: float):
    """Binomial(n, p) mass at k; overflow-safe at mMTC scale. Vectorized in k.

    Backed by scipy's saddle-point evaluation: a plain log-gamma route loses
    ~2e-12 of total mass around n = 2000, which would break the unit-mass
    contract the averaged bounds rely on.
    """
    k = np.asarray(k)
    if np.any((k < 0) | (k > n)):
        raise ValueError(f"support of Binomial({n}, {p}) is 0..{n}")
    if p == 0.0:
        return np.where(k == 0, 1.0, 0.0)[()]
    if p == 1.0:
        return np.where(k == n, 1.0, 0.0)[()]
    if p < 1e-6 or p > 1.0 - 1e-6:
        # scipy's evaluator overflows for extreme p; the log-gamma route is
        # accurate there because the mass sits on a handful of terms
        log_pmf = (
            gammaln(n + 1.0)
            - gammaln(k + 1.0)
            - gammaln(n - k + 1.0)
            + k * np.log(p)
            + (n - k) * np.log1p(-p)
        )
        return np.exp(log_pmf)[()]
    return stats.binom.pmf(k, n, p)[()]


def pmf_over(law: AnyLaw, ks: np.ndarray) -> np.ndarray:
    """Vectorized pmf of either law over integer values ``ks``."""
    n, p = _binom_params(law)
    return np.atleast_1d(binom_pmf(ks, n, p))


@lru_cache(maxsize=65536)
def _truncate_binom(n: int, p: float, eps_tail: float) -> tuple[int, int, float]:
    if p in (0.0, 1.0) or n == 0:
        k = int(round(n * p))
        return k, k, 1.0
    mode = min(n, int((n + 1) * p))
    sd = math.sqrt(n * p * (1.0 - p))
    # vectorized pmf over a window wide enough for the requested tail,
    # doubled on the rare occasions the Gaussian-with-margin guess is short
    half = int(6.5 * sd) + 12
    while True:
        w_lo, w_hi = max(0, mode - half), min(n, mode + half)
        pm = np.atleast_1d(binom_pmf(np.arange(w_lo, w_hi + 1), n, p))
        if float(pm.sum()) >= 1.0 - eps_tail or (w_lo == 0 and w_hi == n):
            break
        half *= 2
    target = min(1.0 - eps_tail, float(pm.sum()))
    i = j = mode - w_lo
    mass = float(pm[i])
    while mass < target:
        left = pm[i - 1] if i > 0 else -1.0
        right = pm[j + 1] if j + 1 < pm.size else -1.0
        if left >= right:
            i -= 1
            mass += left
        else:
            j += 1
            mass += right
    return w_lo + i, w_lo + j, min(mass, 1.0)


def truncate_support(law: AnyLaw, eps_tail: float = 1e-9) -> TruncatedSupport:
    """Smallest contiguous window around the mode with mass >= 1 - eps_tail.

    Grows greedily from the mode, always annexing the heavier neighbour;
    for a unimodal pmf this yields the minimal contiguous window.
    """
    if not 0.0 < eps_tail < 1.0:
        raise ValueError(f"eps_tail must lie in (0, 1), got {eps_tail}")
    n, p = _binom_params(law)
    lo, hi, mass = _truncate_binom(n, p, eps_tail)
    return TruncatedSupport(lo, hi, mass)


def sample_active_set(law: ActivationLaw, rng: np.random.Generator) -> np.ndarray:
    """Indices of devices active this frame (each included w.p. p_a)."""
    return np.flatnonzero(rng.random(law.K) < law.p_a)
