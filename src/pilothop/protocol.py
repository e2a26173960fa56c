"""Slot-level simulation of the pilot-hopping random access uplink.

Each device holds a pseudo-random pilot-hopping pattern known to the base
station: the pilot of device d in slot l of a frame is a counter-based hash
of (seed, frame, d, l), so only the active devices' patterns are computed
to transmit. ``train_slot``, the only place the training phase is written,
draws per slot only what the receiver reads: the channels' Bartlett QR
factor in min(K_a, M) coordinates, each used pilot's projection onto the
channels' span, and one Gamma per pilot for the rest of its energy. It
takes no M-dimensional draw, forms no pilot-book product, and keeps every
inner product the receiver reads (see its docstring). ``run_frame`` runs
the receiver over blocks of ``SLOT_ENTRIES``-bounded size, one numpy call
per operation, in one set of ``block_arrays`` a frame; draws stay per
slot, so no slot depends on its block. The receiver thresholds the
correlation energy to find the pilots in use. Across slots the detected
pilot sets are matched against the hopping patterns to identify which
devices transmitted; the scan regenerates the population's patterns in
``SCAN_ENTRIES``-entry blocks, one slot chunk at a time, and stops hashing
a device once it has missed more slots than ``RHO`` allows. A frame is
set by its scenario, its random stream and its frame index alone.

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
from typing import Callable

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; load it at import, not inside a run

from .access import ActivationLaw, sample_active_set
from .channels import sample_beta
from .config import SystemConfig


# Pilot-activity threshold: a pilot is detected when its correlation energy
# per antenna exceeds t = 1 + ZETA*sqrt(2/M). On a pilot nobody uses the
# statistic is Gamma(M, 1/M): mean 1, standard deviation 1/sqrt(M), so t sits
# ZETA*sqrt(2) standard deviations above the mean, and the per-pilot
# false-alarm probability, scipy.special.gammaincc(M, M*t), is 1.8e-9 at M = 100
ZETA = 5.0

# Identification threshold: a device is declared active when its pattern
# hits the detected pilots in at least this fraction of the frame's slots
RHO = 0.9

# (device, slot) pattern entries the identification scan regenerates at a
# time: its working set stays at a few 512 kB arrays whatever K and L are
SCAN_ENTRIES = 1 << 16

# complex entries of the training arrays that one block of slots holds
# (K_a + tau_p rows of min(K_a, M) + 1 coordinates a slot): seven slots at
# K_a = 37, tau_p = 39, M = 100. Blocks of 4-7 slots ran fastest there;
# larger ones fall out of cache
SLOT_ENTRIES = 5 << 12

# SplitMix64: the golden-ratio counter increment and the finalizer multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@lru_cache(maxsize=1)
def _frame_key(root_seed: int, frame: int) -> np.uint64:
    """The 64-bit key of ``hopping_patterns`` for one frame; a frame's blocks and scan share it."""
    return np.random.SeedSequence((root_seed, frame)).generate_state(1, np.uint64)[0]


def hopping_patterns(devices, frame: int, slots: range, tau_p: int, root_seed: int) -> np.ndarray:
    """(len(devices), len(slots)) pilot indices: row i is the pattern of
    device ``devices[i]`` in frame ``frame`` over the slots of the range
    ``slots`` (step 1).

    A counter-based function of (root seed, frame, device, slot), so both
    sides regenerate any entry alone. ``SeedSequence((root_seed, frame))``
    gives one 64-bit frame key, held for the latest frame, which keeps every
    bit of any non-negative integer seed. Entry (d, l) is the SplitMix64
    output at counter d * 2**32 + l + 1 under that key, and its output h
    maps to a pilot by multiply-high, ``((h >> 32) * tau_p) >> 32``. Each
    pilot then has probability within 2**-32 of 1/tau_p: a relative bias of
    at most tau_p / 2**32. The mixer's input (counter * gamma + key, mod 2**64) is
    formed as a per-device column plus a per-slot row.
    """
    devices = np.asarray(devices, dtype=np.int64)
    if devices.size and (devices.min() < 0 or devices.max() >= 1 << 32):
        raise ValueError("device ids must lie in [0, 2**32)")
    if slots.step != 1 or slots.start < 0:
        raise ValueError("slots must be a step-1 range of non-negative slot indices")
    col = (devices.astype(np.uint64) << np.uint64(32)) * _GAMMA + _frame_key(root_seed, frame)
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
    """Energy ||y_j||^2 of each column of ``corr``, (..., r, tau_p) -> (..., tau_p); a scalar for one column."""
    return np.sum(corr.real**2 + corr.imag**2, axis=max(corr.ndim - 2, 0))


def detect_pilots(energy: np.ndarray, M: int) -> np.ndarray:
    """Flat indices of the pilots whose correlation energy clears the threshold ``ZETA`` sets.

    ``energy`` is :func:`pilot_energy` of the correlated pilot block, whose
    r <= M + 1 rows are a rotated basis (``train_slot``'s), so M is passed.
    For a block of slots, (B, tau_p), slot b's pilot j has index b*tau_p + j.
    """
    return np.flatnonzero(energy / M > 1.0 + ZETA * np.sqrt(2.0 / M))


def estimate_sum_power(y_p: np.ndarray, tau_p: int, M: int):
    """Channel-hardening estimate of the summed gain on a pilot.

    ``y_p`` is the correlated observation of one pilot at ``M`` antennas, in
    a basis of r rows (a float), or a block of such columns. The noise
    floor contributes exactly 1 per antenna, hence the subtraction. No slot
    output holds it, so ``simulate_slot`` does not compute it.
    """
    est = np.maximum(0.0, (pilot_energy(y_p) / M - 1.0) / tau_p)
    return float(est) if est.ndim == 0 else est


@dataclass
class SlotOutcome:
    """Receiver outputs plus the genie SINR for a block of B slots.

    ``detected`` and ``pilot_of_device`` hold flat ids b*tau_p + pilot of
    the block's slot b, and ``pilot_of_device`` and ``device_sinr`` are (B,
    K_a).
    """

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
    out: dict,
) -> np.ndarray:
    """Genie SINR per active device under MRC along its pilot's observation, for a block of B slots.

    The combiner is a positive multiple of the correlated observation
    ``corr[b, :, pilot]``, and the SINR does not depend on that multiple, so
    neither the receiver's sum-power estimate nor any data realization
    enters it. ``yn2 = pilot_energy(corr)``, as detection reads it. G is (B,
    r, K_a), ``assignment`` (B, K_a), corr (B, r, tau_p) and yn2 (B, tau_p).
    One batched product ``U[b*tau_p + j, k] = y_j^H g_k`` serves every
    pilot of every slot; the per-pilot terms are sums over the pilot's
    members, and only the rows of pilots in use are read. Returns (B, K_a).
    corr^H and U go into ``out``, :func:`block_arrays` of at least B slots.
    """
    B, K_a = assignment.shape
    rows = (np.arange(B)[:, None] * tau_p + assignment).ravel()
    own = (rows, np.tile(np.arange(K_a), B))
    corr_h = np.conjugate(np.swapaxes(corr, -1, -2), out=out["scratch"][:B])
    U = np.matmul(corr_h, G, out=out["U"][:B]).reshape(B * tau_p, K_a)
    betas = np.tile(betas, B)
    yn2 = yn2.reshape(-1)
    total = np.bincount(rows, weights=betas, minlength=B * tau_p)
    ghat_dot = np.sqrt(tau_p) * betas / (tau_p * total[rows] + 1.0) * yn2[rows]  # y^H ghat_k, real
    err = ghat_dot - U[own]
    ee = np.bincount(rows, weights=err.real**2 + err.imag**2, minlength=B * tau_p)
    gd2 = ghat_dot**2
    gd2_tot = np.bincount(rows, weights=gd2, minlength=B * tau_p)
    off = U.real**2 + U.imag**2
    off[own] = 0.0  # row j keeps only the devices off pilot j
    rest = (ee + off.sum(axis=1) + yn2)[rows]
    return (gd2 / (gd2_tot[rows] - gd2 + rest)).reshape(B, K_a)


@lru_cache(maxsize=16)
def _bartlett_layout(K_a: int, m: int):
    """Flat positions in a (K_a, m + 1) complex array of the strictly lower
    entries of its first m columns, in its float view and row-major order,
    with the row of each, and of its m diagonal entries."""
    rows, cols = np.tril_indices(K_a, -1, m)
    re = 2 * (rows * (m + 1) + cols)
    return np.stack([re, re + 1], axis=1).ravel(), np.repeat(rows, 2), np.arange(m) * (m + 2)


def block_arrays(slots: int, K_a: int, tau_p: int, r: int) -> dict:
    """The arrays a block of up to ``slots`` slots writes: K_a devices,
    ``tau_p`` pilots, r = m + 1 coordinates. ``z``, the normal draws; ``Gt``
    = G^T; ``Ct`` = corr^T; ``E``, the one-hot map; ``U`` = corr^H G; and
    ``scratch``, E @ Gt and then corr^H. A block of B slots writes the
    leading [:B] views, so ``run_frame``'s blocks share one set a frame."""
    m = r - 1
    draws = _bartlett_layout(K_a, m)[0].size + 2 * m * min(K_a, tau_p)
    shapes = {"Gt": (K_a, r), "Ct": (tau_p, r), "scratch": (tau_p, r), "U": (tau_p, K_a)}
    arrays = {name: np.empty((slots, *shape), dtype=complex) for name, shape in shapes.items()}
    return {**arrays, "E": np.empty((slots, tau_p, K_a)), "z": np.empty(slots * draws)}


def train_slot(betas: np.ndarray, assignment: np.ndarray, tau_p: int, M: int, rng: np.random.Generator, out: dict):
    """Training phase of a block of B slots: (G, corr), the (B, m + 1, K_a)
    channels and the (B, m + 1, tau_p) pilot blocks correlated with the
    unitary book, in a rotated basis of m + 1 antenna coordinates, m =
    min(K_a, M). G and corr are views of ``out``, :func:`block_arrays` of at
    least B slots.

    ``assignment`` holds the block's (B, K_a) pilots; the gains ``betas``
    hold in every slot. The receiver reads the channels'
    inner products with each other, each used pilot's inner products with
    the channels, and each pilot's energy, so a slot draws those statistics
    and no more. Its first m coordinates span the channels, and the last
    holds the norm of what of each pilot's noise lies outside that span.
    Per slot, in this order:

    1. standard normals, real and imaginary parts interleaved, CN(0, 1)
       after a sqrt(1/2) scale: the strictly upper entries of the (m, K_a)
       Bartlett QR factor R of G diag(betas)^-1/2, in row-major order of
       R^T; then, for each used pilot in pilot order, the m coordinates of
       its noise in span(G). (Two ``standard_normal`` calls, one stream.)
    2. one ``standard_gamma`` call: R_ii^2 ~ Gamma(M - i) for i < m; then,
       for each pilot in pilot order, the squared norm of the rest of its
       noise, Gamma(M - m) if the pilot is used (0 when m = M) and Gamma(M)
       if not.

    G = [R sqrt(betas); 0], each entry scaled as it is placed. A used
    pilot's observation is its noise plus sqrt(tau_p) times its members'
    channels; an unused pilot's is its noise, all of it in the last
    coordinate. This is exact: the noise is independent of G and
    rotation-invariant, so given G its projection onto the m-dimensional
    span(G) is CN(0, I_m) and the squared norm of the rest is an
    independent Gamma(M - m). Every inner product of G with G and with
    a used pilot's observation, and every pilot's energy, therefore has the
    law of the physical slot's; only the inner products between two pilots'
    observations, which the receiver never reads, do not.
    """
    B, K_a = assignment.shape
    m = min(K_a, M)
    strict, device, diag = _bartlett_layout(K_a, m)
    used = np.zeros((B, tau_p), dtype=bool)
    used[np.arange(B)[:, None], assignment] = True
    counts = 2 * m * np.count_nonzero(used, axis=1)
    ends = np.cumsum(counts)
    shapes = np.empty((B, m + tau_p))
    shapes[:, :m] = M - np.arange(m)
    shapes[:, m:] = np.where(used, M - m, M)
    Gt, Ct, E, prod = (out[name][:B] for name in ("Gt", "Ct", "E", "scratch"))
    zg = out["z"][:B * strict.size].reshape(B, strict.size)
    zp, g = out["z"][B * strict.size:][:ends[-1]], np.empty((B, m + tau_p))
    for b in range(B):  # per slot, so a slot's draws do not depend on its block
        rng.standard_normal(out=zg[b])
        rng.standard_normal(out=zp[ends[b] - counts[b]:ends[b]])
        rng.standard_gamma(shapes[b], out=g[b])
    Gt[...] = Ct[...] = E[...] = 0  # each is written sparsely below
    zg *= np.sqrt(0.5 * betas)[device]
    Gt.reshape(B, -1).view(float)[:, strict] = zg
    Gt.reshape(B, -1)[:, diag] = np.sqrt(g[:, :m] * betas[:m])
    zp *= np.sqrt(0.5)
    Ct[:, :, :m][used] = zp.view(complex).reshape(np.count_nonzero(used), m)
    Ct[:, :, m] = np.sqrt(g[:, m:])
    E[np.arange(B)[:, None], assignment, np.arange(K_a)] = np.sqrt(tau_p)  # sqrt(tau_p) at (device k's pilot, k)
    Ct.view(float)[...] += np.matmul(E, Gt.view(float), out=prod.view(float))
    return np.swapaxes(Gt, -1, -2), np.swapaxes(Ct, -1, -2)


def simulate_slot(betas, assignment, tau_p: int, M: int, rng: np.random.Generator, out: dict) -> SlotOutcome:
    """A block of coherence slots on a book of ``tau_p`` pilots (``assignment``
    (B, K_a)): training, detection, genie SINR. ``out`` is :func:`block_arrays`
    of at least B slots; no output is a view of it."""
    G, corr = train_slot(betas, assignment, tau_p, M, rng, out=out)
    energy = pilot_energy(corr)
    pilots = np.arange(len(assignment))[:, None] * tau_p + assignment
    sinr = mrc_and_measure(G, betas, assignment, corr, energy, tau_p, out=out)
    return SlotOutcome(detect_pilots(energy, M), pilots, sinr)


@dataclass(frozen=True)
class IdentificationReport:
    identified: np.ndarray
    missed: np.ndarray
    false: np.ndarray


def match_patterns(
    detected: np.ndarray,
    patterns_of: Callable[[np.ndarray, range], np.ndarray],
    K: int,
    tau_p: int,
    active: np.ndarray,
) -> IdentificationReport:
    """Declare a device of 0..K-1 active when its pattern hits the detected
    pilot set in at least a ``RHO`` fraction of slots, and compare the
    declared devices with the ``active`` ones.

    ``detected`` is the (L, tau_p) boolean map of each slot's detected pilots.

    ``patterns_of(devices, slots)`` returns the devices' pattern entries over
    the range ``slots``. A device is identified when its hits h satisfy
    ``h / L >= RHO``, that is when it misses at most ``slack = L - need``
    slots, ``need`` the least such h. The scan takes the frame in chunks of
    ``slack + 1`` slots, the fewest after which a device can exceed its
    slack, and hashes only the devices still within it: a signed per-device
    budget (one byte each while slack < 128) counts down their misses.
    Survivors are regenerated in blocks of at most ``SCAN_ENTRIES`` pattern
    entries, so no K x L table is held. With a single observed slot this
    degenerates to per-slot pilot ambiguity: every device whose pilot was
    detected matches. ``missed`` and ``false`` are the sorted set differences
    of the active and the identified ids.
    """
    detected = np.asarray(detected)
    L = len(detected)
    if detected.dtype != bool or detected.shape != (L, tau_p) or L < 1:
        raise ValueError(f"need a (slots >= 1, {tau_p}) boolean detection map")
    D, offsets = detected.ravel(), np.arange(L) * tau_p  # slot l's pilot j sits at l*tau_p + j
    need = int(np.argmax(np.arange(L + 1) / L >= RHO))  # the same division as hits / L >= RHO
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
    on, off = set(active.tolist()), set(identified.tolist())
    missed = np.array(sorted(on - off), dtype=active.dtype)
    false = np.array(sorted(off - on), dtype=identified.dtype)
    return IdentificationReport(identified, missed, false)


@dataclass
class FrameResult:
    """Per-frame simulation summary; rates are aligned with ``active``. No
    per-slot outcome is kept, so memory does not grow with the slot count."""

    active: np.ndarray
    rates: np.ndarray
    sum_rate: float
    identification: IdentificationReport


def run_frame(
    cfg: SystemConfig,
    n_slots: int,
    rng: np.random.Generator,
    *,
    frame_index: int = 0,
) -> FrameResult:
    """Simulate one transmission frame of ``n_slots`` coherence slots of the scenario ``cfg``.

    ``rng`` draws the active set (``sample_active_set``), then its gains
    from ``cfg.model`` (``sample_beta``), then the slots in slot order.
    Per-device empirical rates average log2(1 + SINR) over the slots in
    which the device's pilot was detected (undetected slots contribute
    zero), scaled by the training-overhead prelog. Slots are simulated in
    blocks sized by ``SLOT_ENTRIES``, all in one :func:`block_arrays`;
    rates are added slot by slot, in slot order, so no output depends on
    the block size. Every run detects pilots at ``ZETA`` and identifies
    devices at ``RHO``: no spec field reaches either.
    """
    if cfg.tau_p is None or cfg.p_a is None:
        raise ValueError("run_frame needs tau_p and p_a set")
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    tau_p, tau_u, M = cfg.tau_p, cfg.tau_u, cfg.M
    active = sample_active_set(ActivationLaw(cfg.K, cfg.p_a), rng)

    def patterns_of(devices, slots):
        return hopping_patterns(devices, frame_index, slots, tau_p, cfg.seed)

    betas = sample_beta(cfg.model, rng, active.size)

    bits = np.zeros(active.size)
    detected = np.zeros((n_slots, tau_p), dtype=bool)  # slot l's detected pilots
    step = max(1, SLOT_ENTRIES // ((active.size + tau_p) * (min(active.size, M) + 1)))
    arrays = block_arrays(min(step, n_slots), active.size, tau_p, min(active.size, M) + 1)
    for start in range(0, n_slots, step):
        block = range(start, min(start + step, n_slots))
        assignments = patterns_of(active, block).T  # row b: the active devices' pilots in slot start + b
        slot = simulate_slot(betas, assignments, tau_p, M, rng, out=arrays)
        hits = detected[block.start:block.stop]
        hits.reshape(-1)[slot.detected] = True
        seen = hits.reshape(-1)[slot.pilot_of_device]
        for gained in np.where(seen, np.log2(1.0 + slot.device_sinr), 0.0):  # slot by slot, in slot order
            bits += gained
    del arrays  # the identification scan's buffers do not stack on them

    prelog = (tau_u - tau_p) / tau_u
    rates = prelog * bits / n_slots
    ident = match_patterns(detected, patterns_of, cfg.K, tau_p, active)
    return FrameResult(active, rates, float(rates.sum()), ident)

