"""Activation and pilot-collision probability machinery.

Device activation is Bernoulli per device and frame, so the active count
follows Binomial(K, p_a). Conditioned on K_a active devices, the number of
colliders seen by one reference device is Binomial(K_a - 1, 1/tau_p) because
the other active devices pick pilots uniformly and independently.

Masses are evaluated overflow-safe at mMTC populations (K up to 1e5), and
the averaged rate bounds truncate the outer sums to a high-coverage window
around the binomial mode. ``binom_windows`` finds those windows for many
(n, p) pairs in one call, a bounded chunk of rows at a time; the averaged
bounds build every collision window of a pilot length, and every activation
window of a grid stage, with one call each.

The masses come from scipy's special-function ufuncs, which the first
binomial loads (:func:`load_binomial`) and importing this module does not:
only R1 and R2 take binomials, and the simulator, R3, Ra and the scaling
laws run without scipy.
"""

from __future__ import annotations

import os
import sys
import types
from dataclasses import dataclass
from functools import cache

import numpy as np


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


@cache
def load_binomial():
    """(gammaln, _binom_pmf) from ``scipy.special._ufuncs``, loaded on the first call.

    scipy is the package's only source of binomial masses. The ufunc
    extension alone loads in about 0.02–0.03 s and 5 MB, while ``import
    scipy.special`` also runs its package ``__init__``, whose array-API layer
    (which imports ``numpy.f2py`` and ``numpy.testing``) brings the cost to
    about 0.2 s and 17 MB. So, unless ``scipy.special`` is loaded already,
    the extension is imported under a bare stand-in package that is removed
    again, error or not; a later ``import scipy.special`` runs the real
    ``__init__`` and exports these very ufunc objects. ``pilothop run``
    calls this during set-up for specs that evaluate R1 or R2
    (``config.evaluated_bounds``), so a broken scipy fails before any work.
    """
    import scipy

    bare = "scipy.special" not in sys.modules
    if bare:
        stand_in = types.ModuleType("scipy.special")
        stand_in.__path__ = [os.path.join(scipy.__path__[0], "special")]
        sys.modules["scipy.special"] = stand_in
    try:
        from scipy.special import _ufuncs
    finally:
        if bare:
            del sys.modules["scipy.special"]
    return _ufuncs.gammaln, _ufuncs._binom_pmf


def binom_pmf(k, n, p: float):
    """Binomial(n, p) mass at k; overflow-safe at mMTC scale. Vectorized in k and n.

    Calls the saddle-point ufunc behind ``scipy.stats.binom.pmf`` directly,
    which gives the same values without importing ``scipy.stats``. A plain
    log-gamma route loses about n eps of total mass (~2e-12 around n =
    2000, 9e-9 at n = 1e7, p = 1e-7), which would break the unit-mass
    contract the averaged bounds and :func:`binom_windows` rely on. That
    route is taken only where p max(n) < 2^-53, so that P(X = 0) rounds to 1
    and the loss is below rounding: the ufunc overflows for p near the
    smallest normal double (2.2e-308). Both come from :func:`load_binomial`, so
    scipy is imported by the first call, not by importing this module.
    """
    gammaln, _binom_pmf = load_binomial()
    k = np.asarray(k)
    if np.any((k < 0) | (k > n)):
        raise ValueError(f"support of Binomial({n}, {p}) is 0..{n}")
    if p == 0.0:
        return np.where(k == 0, 1.0, 0.0)
    if p == 1.0:
        return np.where(k == n, 1.0, 0.0)
    if p * np.max(n) < 2.0**-53:
        log_pmf = (
            gammaln(n + 1.0)
            - gammaln(k + 1.0)
            - gammaln(n - k + 1.0)
            + k * np.log(p)
            + (n - k) * np.log1p(-p)
        )
        return np.exp(log_pmf)
    return _binom_pmf(k, n, p)


# Entries of the pmf band that ``binom_windows`` holds at once: it takes its
# rows in chunks of at most this many (row x widest band) entries, or one row
WINDOW_ENTRIES = 1 << 15


def _row_chunks(widths) -> list[tuple[int, int]]:
    """Consecutive row ranges, each of one row or of rows whose count times
    the widest of them stays within ``WINDOW_ENTRIES``."""
    chunks, start = [], 0
    while start < widths.size:
        widest = np.maximum.accumulate(widths[start:start + max(WINDOW_ENTRIES // int(widths[start]), 1)])
        fit = int(np.count_nonzero(widest * np.arange(1, widest.size + 1) <= WINDOW_ENTRIES))
        chunks.append((start, start + max(fit, 1)))
        start = chunks[-1][1]
    return chunks


def binom_windows(ns, p, eps_tail: float):
    """Smallest contiguous windows around the mode with mass >= 1 - eps_tail,
    for Binomial(n, p) at every pair of ``ns`` and ``p`` (broadcast to 1-D).

    Returns (lo, hi, covered, masses): integer arrays of window ends, the
    mass each window covers, and for each pair the pmf over lo..hi.

    The pmf is evaluated on a band of mode +- (6.5 sd + 12), doubled for the
    rare pair whose band holds less than 1 - eps_tail, the band's mass being
    its entries summed as one array. A window grows from the mode by always
    annexing the heavier neighbour (the left one on ties). Both sides of a
    binomial pmf fall away from the mode, so that order is a stable
    descending sort of the band, and the window is the shortest prefix of it
    whose running sum, added in that order, reaches the target.

    Rows are taken in chunks (:func:`_row_chunks`); every step is one row's
    own, so a row's window and masses do not depend on the chunk it is in.
    """
    ns, ps = np.broadcast_arrays(np.asarray(ns, dtype=np.int64), np.asarray(p, dtype=float))
    ns, ps = ns.ravel(), ps.ravel()
    mode = np.minimum(ns, np.floor((ns + 1) * ps).astype(np.int64))
    half = (6.5 * np.sqrt(ns * ps * (1.0 - ps))).astype(np.int64) + 12
    lo, hi, covered, masses = np.empty_like(ns), np.empty_like(ns), np.empty(ns.size), [None] * ns.size
    todo = np.arange(ns.size)
    while todo.size:
        w_lo = np.maximum(0, mode[todo] - half[todo])
        span = np.minimum(ns[todo], mode[todo] + half[todo]) - w_lo
        short = []
        for a, b in _row_chunks(span + 1):
            rows, start, last = todo[a:b], w_lo[a:b], span[a:b]
            pm, band = _band(ns[rows], ps[rows], start, last)
            wide = (band < 1.0 - eps_tail) & ((start > 0) | (start + last < ns[rows]))
            if wide.any():
                short.append(rows[wide])
                rows, start, last, pm, band = rows[~wide], start[~wide], last[~wide], pm[~wide], band[~wide]
            n_lo, n_hi, covered[rows], got = _greedy_windows(pm, band, mode[rows] - start, last, eps_tail)
            lo[rows], hi[rows] = start + n_lo, start + n_hi
            for i, m in zip(rows.tolist(), got):
                masses[i] = m
        todo = np.concatenate(short) if short else todo[:0]
        half[todo] *= 2
    return lo, hi, covered, masses


def _band(ns, ps, w_lo, span):
    """The pmf of each row over w_lo..w_lo + span, zero-padded to the widest
    row, and each row's band mass.

    ``binom_pmf`` is called once per distinct p, on the in-band entries only.
    A row's mass is the sum of its own entries, so it does not depend on the
    padding the other rows give it.
    """
    width = int(span.max()) + 1
    inside = np.arange(width) <= span[:, None]
    ks = (w_lo[:, None] + np.arange(width))[inside]
    n_of, p_of = np.repeat(ns, span + 1), np.repeat(ps, span + 1)
    vals = np.empty(ks.size)
    for q in set(ps.tolist()):
        at = p_of == q
        vals[at] = binom_pmf(ks[at], n_of[at], q)
    pm = np.zeros((ns.size, width))
    pm[inside] = vals
    band = np.empty(ns.size)
    for length in set(span.tolist()):
        at = span == length
        band[at] = pm[at, :length + 1].sum(axis=1)
    return pm, band


def _greedy_windows(pm, band, m, span, eps_tail: float):
    """Windows of the band rows ``pm`` (mode at column ``m``, last entry at
    column ``span``) as (lo, hi, covered, masses), lo and hi counted in
    columns."""
    rows = np.arange(pm.shape[0])[:, None]
    m, span = m[:, None], span[:, None]
    step = np.arange(1, pm.shape[1])
    # neighbours in the order the window reaches them, left side then right;
    # -1 marks positions outside the band
    left, right = m - step, m + step
    side = np.concatenate([
        np.where(left >= 0, pm[rows, np.maximum(left, 0)], -1.0),
        np.where(right <= span, pm[rows, np.minimum(right, span)], -1.0),
    ], axis=1)
    order = np.argsort(-side, axis=1, kind="stable")
    ranked = np.take_along_axis(side, order, axis=1)
    running = np.cumsum(np.concatenate([pm[rows, m], ranked], axis=1), axis=1)
    reached = running >= np.minimum(1.0 - eps_tail, band)[:, None]
    # annexed neighbours; the whole band if rounding keeps the target out of reach
    taken = np.where(reached.any(axis=1), reached.argmax(axis=1), (ranked >= 0).sum(axis=1))
    n_left = ((order < step.size) & (np.arange(order.shape[1]) < taken[:, None])).sum(axis=1)
    lo = m[:, 0] - n_left
    covered = np.minimum(running[rows[:, 0], taken], 1.0)
    cols = np.arange(pm.shape[1])
    in_window = (cols >= lo[:, None]) & (cols <= (lo + taken)[:, None])
    flat, ends = pm[in_window], np.cumsum(taken + 1).tolist()
    masses = [flat[a:b] for a, b in zip([0, *ends], ends)]
    return lo, lo + taken, covered, masses


def truncate_support(law: ActivationLaw | CollisionLaw, eps_tail: float = 1e-9) -> TruncatedSupport:
    """Smallest contiguous window around the mode with mass >= 1 - eps_tail.

    Grows greedily from the mode, always annexing the heavier neighbour;
    for a unimodal pmf this yields the minimal contiguous window.
    """
    if not 0.0 < eps_tail < 1.0:
        raise ValueError(f"eps_tail must lie in (0, 1), got {eps_tail}")
    if isinstance(law, ActivationLaw):
        n, p = law.K, law.p_a
    elif isinstance(law, CollisionLaw):
        n, p = law.K_a - 1, 1.0 / law.tau_p
    else:
        raise TypeError(f"expected ActivationLaw or CollisionLaw, got {type(law).__name__}")
    lo, hi, covered, _ = binom_windows([n], p, eps_tail)
    return TruncatedSupport(int(lo[0]), int(hi[0]), float(covered[0]))


def sample_active_set(law: ActivationLaw, rng: np.random.Generator) -> np.ndarray:
    """Indices of devices active this frame (each included w.p. p_a)."""
    return np.flatnonzero(rng.random(law.K) < law.p_a)
