"""Slot-level simulation of the pilot-hopping random access uplink.

Each device holds a pseudo-random pilot-hopping pattern known to the base
station: the pilot of device d in slot l of a frame is a counter-based hash
of (seed, frame, d, l), so only the active devices' patterns are computed
to transmit. Per slot ``train_slot``, the only place the training phase is
written, draws the Bartlett QR factor of [channels | noise], a rotated
antenna basis, instead of M-dimensional draws, and forms no pilot-book
product. The receiver thresholds the correlation energy to find the pilots
in use. Across slots the detected pilot sets are matched against the
hopping patterns to identify which devices transmitted. The scan regenerates
the population's patterns in ``SCAN_ENTRIES``-entry blocks, bounding memory,
one slot chunk at a time, and stops hashing a device once it has missed more
slots than the identification threshold rho allows.

A genie side channel (true channels and gains, never visible to the
receiver path) decomposes the output of maximum ratio combining along each
pilot's correlated observation into signal, contamination, estimation-error,
residual-interference and noise powers, yielding the per-slot effective SINR
that the analytic bounds are validated against. The SINR is a closed form in
the channels, so no data block is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import numpy.ma  # noqa: F401  np.unique loads it lazily; load it at import, not inside a run
import numpy.random  # noqa: F401  numpy loads it lazily; load it at import, not inside a run

from .access import ActivationLaw, sample_active_set
from .channels import sample_beta
from .config import SystemConfig


@dataclass(frozen=True)
class DetectionThreshold:
    """Pilot-activity threshold: detect when the correlation energy per
    antenna exceeds t = 1 + zeta*sqrt(2/M).

    On a pilot nobody uses the statistic is Gamma(M, 1/M): mean 1, standard
    deviation 1/sqrt(M), so t sits zeta*sqrt(2) standard deviations above
    the mean. The per-pilot false-alarm probability is
    ``scipy.special.gammaincc(M, M*t)``; the default zeta = 5 gives 1.8e-9
    at M = 100.
    """

    zeta: float = 5.0

    def __post_init__(self):
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")

    def value(self, M: int) -> float:
        return 1.0 + self.zeta * np.sqrt(2.0 / M)


# (device, slot) pattern entries the identification scan regenerates at a
# time: its working set stays at a few 512 kB arrays whatever K and L are
SCAN_ENTRIES = 1 << 16

# SplitMix64: the golden-ratio counter increment and the finalizer multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def hopping_patterns(devices, frame: int, slots: range, tau_p: int, root_seed: int) -> np.ndarray:
    """(len(devices), len(slots)) pilot indices: row i is the pattern of
    device ``devices[i]`` in frame ``frame`` over the slots of the range
    ``slots`` (step 1).

    A counter-based function of (root seed, frame, device, slot), so both
    sides regenerate any entry alone. ``SeedSequence((root_seed, frame))``
    gives one 64-bit frame key per call, which keeps every bit of any
    non-negative integer seed. Entry (d, l) is the SplitMix64 output at counter
    d * 2**32 + l + 1 under that key, and its output h maps to a pilot by
    multiply-high, ``((h >> 32) * tau_p) >> 32``. Each pilot then has
    probability within 2**-32 of 1/tau_p: a relative bias of at most
    tau_p / 2**32. The mixer's input (counter * gamma + key, mod 2**64) is
    formed as a per-device column plus a per-slot row.
    """
    devices = np.asarray(devices, dtype=np.int64)
    if devices.size and (devices.min() < 0 or devices.max() >= 1 << 32):
        raise ValueError("device ids must lie in [0, 2**32)")
    if slots.step != 1 or slots.start < 0:
        raise ValueError("slots must be a step-1 range of non-negative slot indices")
    key = np.random.SeedSequence((root_seed, frame)).generate_state(1, np.uint64)
    col = (devices.astype(np.uint64) << np.uint64(32)) * _GAMMA + key
    row = np.arange(slots.start + 1, slots.stop + 1, dtype=np.uint64) * _GAMMA
    x = np.add.outer(col, row)
    t = np.empty_like(x)  # the xor-shifts' scratch
    np.right_shift(x, np.uint64(30), out=t)
    x ^= t
    x *= _MIX1
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= _MIX2
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    x >>= np.uint64(32)
    x *= np.uint64(tau_p)
    x >>= np.uint64(32)
    return x.view(np.intp)


def all_patterns(K: int, frame: int, n_slots: int, tau_p: int, root_seed: int) -> np.ndarray:
    """(K, n_slots) hopping patterns of the whole device population."""
    return hopping_patterns(np.arange(K), frame, range(n_slots), tau_p, root_seed)


def pilot_energy(corr: np.ndarray) -> np.ndarray:
    """Correlation energy ||y_j||^2 of each column of ``corr`` (a scalar for one column)."""
    return np.einsum("i...,i...->...", corr.real, corr.real) + np.einsum("i...,i...->...", corr.imag, corr.imag)


def detect_pilots(energy: np.ndarray, M: int, threshold: DetectionThreshold | None = None) -> np.ndarray:
    """Indices of pilots whose correlation energy clears the threshold.

    ``energy`` is :func:`pilot_energy` of the correlated pilot block, whose
    r <= M rows may be a rotated basis (``train_slot``'s), so M is passed.
    """
    threshold = threshold or DetectionThreshold()
    return np.flatnonzero(energy / M > threshold.value(M))


def estimate_sum_power(y_p: np.ndarray, tau_p: int, M: int):
    """Channel-hardening estimate of the summed gain on a pilot.

    ``y_p`` is the correlated observation of one pilot at ``M`` antennas, in
    a basis of r <= M rows (a float), or a block of such columns. The noise
    floor contributes exactly 1 per antenna, hence the subtraction. No slot
    output holds it, so ``simulate_slot`` does not compute it.
    """
    est = np.maximum(0.0, (pilot_energy(y_p) / M - 1.0) / tau_p)
    return float(est) if est.ndim == 0 else est


@dataclass
class SlotOutcome:
    """Receiver outputs plus the genie SINR for one slot."""

    detected: np.ndarray
    pilot_of_device: np.ndarray
    device_sinr: np.ndarray


def mrc_and_measure(
    G: np.ndarray,
    betas: np.ndarray,
    assignment: np.ndarray,
    corr: np.ndarray,
    yn2: np.ndarray,
    tau_p: int,
) -> np.ndarray:
    """Genie SINR per active device under MRC along its pilot's observation.

    The combiner is a positive multiple of the correlated observation
    ``corr[:, pilot]``, and the SINR does not depend on that multiple, so
    neither the receiver's sum-power estimate nor any data realization
    enters it. ``yn2 = pilot_energy(corr)``, as detection reads it. One
    product ``U[j, k] = y_j^H g_k`` serves every pilot; the per-pilot terms
    are sums over the pilot's members.
    """
    own = (assignment, np.arange(betas.size))
    U = corr.conj().T @ G
    total = np.bincount(assignment, weights=betas, minlength=tau_p)
    ghat_dot = np.sqrt(tau_p) * betas / (tau_p * total[assignment] + 1.0) * yn2[assignment]  # y^H ghat_k, real
    ee = np.bincount(assignment, weights=np.abs(ghat_dot - U[own]) ** 2, minlength=tau_p)
    gd2 = ghat_dot**2
    gd2_tot = np.bincount(assignment, weights=gd2, minlength=tau_p)
    out = np.abs(U) ** 2
    out[own] = 0.0  # row j keeps only the devices off pilot j
    rest = (ee + out.sum(axis=1) + yn2)[assignment]
    return gd2 / (gd2_tot[assignment] - gd2 + rest)


@lru_cache(maxsize=16)
def _trapezoid(n: int, r: int):
    """Flat float-view positions of an (n, r) complex array's strictly lower entries (row-major) and diagonal."""
    rows, cols = np.tril_indices(n, -1, r)
    re = 2 * (rows * r + cols)
    return np.stack([re, re + 1], axis=1).ravel(), np.arange(r) * (2 * r + 2)


def train_slot(betas: np.ndarray, assignment: np.ndarray, tau_p: int, M: int, rng: np.random.Generator):
    """Training phase of one slot: (G, corr), the (r, K_a) channels and the
    pilot block correlated with the unitary book, in a rotated basis of
    r = min(M, n) antennas, n = K_a + tau_p.

    Rotating the antennas keeps every inner product the receiver reads, so
    the slot draws the (r, n) QR factor R of X = [G diag(betas)^-1/2 | W],
    not X (complex Bartlett): CN(0, 1) strictly upper entries in row-major
    order of R^T, then R_ii = sqrt(Gamma(M - i, 1)). G = R[:, :K_a] sqrt(betas)
    and corr = R[:, K_a:] + sqrt(tau_p) G E, E the 0/1 map of device k to
    pilot ``assignment[k]``; an empty slot's corr is R.
    """
    K_a, n = betas.size, betas.size + tau_p
    r = min(M, n)
    strict, diag = _trapezoid(n, r)
    Rt = np.zeros((n, r), dtype=complex)  # R^T: antennas on the last axis
    Rt.reshape(-1).view(float)[strict] = rng.standard_normal(strict.size) * np.sqrt(0.5)
    Rt.reshape(-1).view(float)[diag] = np.sqrt(rng.standard_gamma(M - np.arange(r)))
    Gt = Rt[:K_a].view(float) * np.sqrt(betas)[:, None]  # float view: (K_a, 2r)
    E = np.sqrt(tau_p) * (np.arange(tau_p)[:, None] == assignment)
    return Gt.view(complex).T, (Rt[K_a:] + (E @ Gt).view(complex)).T


def simulate_slot(betas, assignment, tau_p: int, M: int, rng: np.random.Generator) -> SlotOutcome:
    """One coherence slot on a book of ``tau_p`` pilots: training, detection, genie SINR."""
    betas = np.asarray(betas, dtype=float)
    assignment = np.asarray(assignment, dtype=int)
    G, corr = train_slot(betas, assignment, tau_p, M, rng)
    energy = pilot_energy(corr)
    return SlotOutcome(detect_pilots(energy, M), assignment, mrc_and_measure(G, betas, assignment, corr, energy, tau_p))


@dataclass(frozen=True)
class IdentificationReport:
    identified: np.ndarray
    missed: np.ndarray
    false: np.ndarray


def match_patterns(
    detected_sets: Sequence[np.ndarray],
    patterns_of: Callable[[np.ndarray, range], np.ndarray],
    K: int,
    tau_p: int,
    rho: float = 0.9,
    active: np.ndarray | None = None,
) -> IdentificationReport:
    """Declare a device of 0..K-1 active when its pattern hits the detected
    pilot set in at least a rho fraction of slots.

    ``patterns_of(devices, slots)`` returns the devices' pattern entries over
    the range ``slots``. A device is identified when its hits h satisfy
    ``h / L >= rho``, that is when it misses at most ``slack = L - need``
    slots, ``need`` the least such h. The scan takes the frame in chunks of
    ``slack + 1`` slots, the fewest after which a device can exceed its
    slack, and hashes only the devices still within it: a signed per-device
    budget (one byte each while slack < 128) counts down their misses.
    Survivors are regenerated in blocks of at most ``SCAN_ENTRIES`` pattern
    entries, so no K x L table is held. With a single observed slot this
    degenerates to per-slot pilot ambiguity: every device whose pilot was
    detected matches.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    L = len(detected_sets)
    if L < 1:
        raise ValueError("need at least one observed slot")
    D = np.zeros((L, tau_p), dtype=bool)
    for l, det in enumerate(detected_sets):
        det = np.asarray(det, dtype=int)
        if det.size and (det.min() < 0 or det.max() >= tau_p):
            raise ValueError(f"detected pilots of slot {l} must lie in [0, {tau_p})")
        D[l, det] = True
    D, offsets = D.ravel(), np.arange(L) * tau_p  # slot l's pilot j sits at l*tau_p + j
    need = int(np.argmax(np.arange(L + 1) / L >= rho))  # the same division as hits / L >= rho
    chunk = L - need + 1
    budget = np.full(K, chunk - 1, dtype=np.min_scalar_type(-chunk))  # misses still affordable
    step = max(1, SCAN_ENTRIES // chunk)
    for start in range(0, L, chunk):
        slots = range(start, min(start + chunk, L))
        alive = np.count_nonzero(budget >= 0)
        if alive == 0:
            break
        width = step * K // alive  # an id window holding about `step` survivors
        lo = 0
        while lo < K:
            ids = np.flatnonzero(budget[lo:lo + width] >= 0)[:step]  # a full block resumes after its last id
            nxt = lo + (ids[-1] + 1 if ids.size == step else width)
            if ids.size:
                ids += lo
                hits = np.count_nonzero(D[patterns_of(ids, slots) + offsets[start:slots.stop]], axis=1)
                budget[ids] -= len(slots) - hits
            lo = nxt
    identified = np.flatnonzero(budget >= 0)
    if active is None:
        active = np.array([], dtype=int)
    missed = np.setdiff1d(active, identified)
    false = np.setdiff1d(identified, active)
    return IdentificationReport(identified, missed, false)


@dataclass
class FrameResult:
    """Per-frame simulation summary; rates are aligned with ``active``."""

    active: np.ndarray
    rates: np.ndarray
    sum_rate: float
    identification: IdentificationReport
    slots: list | None = None


def run_frame(
    cfg: SystemConfig,
    n_slots: int,
    rng: np.random.Generator,
    *,
    frame_index: int = 0,
    active: np.ndarray | None = None,
    collect_slots: bool = False,
) -> FrameResult:
    """Simulate one transmission frame of ``n_slots`` coherence slots of the scenario ``cfg``.

    The active set is drawn from ``rng`` unless ``active`` is given (distinct
    ids in [0, K), else ``ValueError``), and its gains from ``cfg.model``.
    Per-device empirical rates average log2(1 + SINR) over the slots in
    which the device's pilot was detected (undetected slots contribute
    zero), scaled by the training-overhead prelog. ``collect_slots`` retains
    the per-slot outcomes in ``FrameResult.slots``. Every run detects pilots
    at the default zeta = 5 of ``DetectionThreshold`` and identifies devices
    at the default rho = 0.9 of ``match_patterns``: no spec field reaches
    either.
    """
    if cfg.tau_p is None or cfg.p_a is None:
        raise ValueError("run_frame needs tau_p and p_a set")
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    tau_p, tau_u, M = cfg.tau_p, cfg.tau_u, cfg.M
    if active is None:
        active = sample_active_set(ActivationLaw(cfg.K, cfg.p_a), rng)
    active = np.asarray(active, dtype=int)
    if np.any((active < 0) | (active >= cfg.K)):
        raise ValueError(f"active device ids must lie in [0, {cfg.K})")
    if np.unique(active).size != active.size:
        raise ValueError("active device ids must be distinct")
    def patterns_of(devices, slots):
        return hopping_patterns(devices, frame_index, slots, tau_p, cfg.seed)

    assignments = patterns_of(active, range(n_slots)).T  # row l: the active devices' pilots in slot l
    betas = sample_beta(cfg.model, rng, active.size)

    bits = np.zeros(active.size)
    detected_sets = []
    slots = [] if collect_slots else None
    for l in range(n_slots):
        assignment = assignments[l]
        out = simulate_slot(betas, assignment, tau_p, M, rng)
        detected_sets.append(out.detected)
        detected = np.zeros(tau_p, dtype=bool)
        detected[out.detected] = True
        seen = detected[assignment]
        bits[seen] += np.log2(1.0 + out.device_sinr[seen])
        if collect_slots:
            slots.append(out)

    prelog = (tau_u - tau_p) / tau_u
    rates = prelog * bits / n_slots
    ident = match_patterns(detected_sets, patterns_of, cfg.K, tau_p, active=active)
    return FrameResult(active, rates, float(rates.sum()), ident, slots)

