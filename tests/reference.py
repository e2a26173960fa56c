"""Reference formulas only the tests read: slow or independent forms of what
the package computes another way (the R2 SINR as its own function, the R3
SINR at scalars, the SINR rebuilt from the MMSE variances, the DFT pilot
book ``train_slot`` rotates away, the full-basis training phase whose
statistics ``train_slot`` draws, the whole-frame hopping-pattern hash, a
frame replayed one slot at a time), the hopping patterns hashed into
buffers of their own (``patterns``), and the slot routines run on one slot
as a block of one (``train_one``, ``simulate_one``, ``mrc_one``)."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from pilothop.access import ActivationLaw, sample_active_set
from pilothop.bounds import _sinr3, estimation_variances
from pilothop.channels import BetaMoments, sample_beta
from pilothop.protocol import SlotOutcome, block_arrays, hopping_patterns, mrc_and_measure, simulate_slot, train_slot


@dataclass(frozen=True)
class SinrComponents:
    """Inverse-SINR decomposition: contamination, estimation error, residual."""

    pilot_contamination: float
    estimation_error: float
    residual_interference: float

    def __post_init__(self):
        for v in (self.pilot_contamination, self.estimation_error, self.residual_interference):
            if v < 0:
                raise ValueError("inverse-SINR components must be non-negative")

    @property
    def inverse_sinr(self) -> float:
        return self.pilot_contamination + self.estimation_error + self.residual_interference


def sinr_components(beta_0: float, colliders, others, tau_p: int, M: int) -> SinrComponents:
    """Inverse-SINR terms assembled from the MMSE estimate/error variances,
    for the arguments of ``bounds.sinr1``.

    Independent of ``bounds.sinr1``: this path goes through the per-device
    estimation variances, the closed form does not.
    """
    if M < 2:
        raise ValueError("the combiner analysis needs M >= 2")
    members = np.concatenate(([beta_0], np.asarray(colliders, dtype=float)))
    others = np.asarray(others, dtype=float)
    est_var, _ = estimation_variances(beta_0, members[1:], tau_p)
    err_sum = 0.0
    for j, b in enumerate(members):
        _, err = estimation_variances(b, np.delete(members, j), tau_p)
        err_sum += err
    gain = (M - 1) * est_var
    return SinrComponents(
        pilot_contamination=float(np.sum(members[1:] ** 2)) / beta_0**2,
        estimation_error=err_sum / gain,
        residual_interference=(float(others.sum()) + 1.0) / gain,
    )


def sinr3(beta_0, moments: BetaMoments, tau_p: int, p_a, K: int, M: int):
    """SINR with collider and active counts averaged out. Broadcasts over ``beta_0`` and ``p_a``.

    It is the formula the R3 stage writes (``bounds._sinr3``), taken at one shape.
    """
    b0, p_a = np.asarray(beta_0, dtype=float), np.asarray(p_a, dtype=float)
    return _sinr3(b0, tau_p, p_a, moments, K, M, np.empty(np.broadcast_shapes(b0.shape, p_a.shape)))[()]


def sinr2(c, K_a: int, beta_0, moments: BetaMoments, tau_p: int, M: int):
    """SINR with collider identities averaged into the interference variances.

    Broadcasts over both ``beta_0`` and the collider count ``c``.
    ``bounds.r2_bar`` forms the same denominator, term for term, in the
    averaged bounds' shared row kernel (``bounds._f_row_sums``).
    """
    if M < 2:
        raise ValueError("M must be >= 2")
    c = np.asarray(c)
    if np.any((c < 0) | (c > K_a - 1)):
        raise ValueError(f"collider count outside 0..{K_a - 1}")
    b0 = np.asarray(beta_0, dtype=float)
    bm, b2m = moments.mean, moments.mean_sq
    den = (
        tau_p * (M - 1) * b2m * c
        + b0 * (1.0 + tau_p * c * bm)
        - c * bm**2 * tau_p
        + (1.0 + (K_a - 1) * bm) * (1.0 + b0 * tau_p + tau_p * c * bm)
    )
    # (M-1)*mean_sq >= mean^2 keeps the denominator positive for M >= 2 and beta_0 > 0
    if not np.all(den > 0):
        raise ValueError("non-positive interference power: beta_0 must be positive")
    return (tau_p * (M - 1) * b0**2 / den)[()]


def pilot_sequences(tau_p: int) -> np.ndarray:
    """Orthonormal DFT pilot book: columns are the tau_p sequences."""
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    j, k = np.meshgrid(np.arange(tau_p), np.arange(tau_p), indexing="ij")
    return np.exp(-2j * np.pi * j * k / tau_p) / np.sqrt(tau_p)


def hopping_table(devices, frame: int, n_slots: int, tau_p: int, root_seed: int) -> np.ndarray:
    """(len(devices), n_slots) hopping patterns hashed counter by counter:
    SplitMix64 of d * 2**32 + l + 1 under the (root_seed, frame) key, mapped
    to a pilot by multiply-high. ``protocol.hopping_patterns`` forms the same
    mixer input as a per-slot column plus a per-device row, slot-major."""
    gamma, mix1, mix2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    key = np.random.SeedSequence((root_seed, frame)).generate_state(1, np.uint64)
    x = (np.asarray(devices, dtype=np.uint64) << np.uint64(32))[:, None] + np.arange(1, n_slots + 1, dtype=np.uint64)
    x = x * gamma + key
    x = (x ^ (x >> np.uint64(30))) * mix1
    x = (x ^ (x >> np.uint64(27))) * mix2
    x = x ^ (x >> np.uint64(31))
    return (((x >> np.uint64(32)) * np.uint64(tau_p)) >> np.uint64(32)).astype(np.intp)


def patterns(devices, frame: int, slots, tau_p: int, root_seed: int) -> np.ndarray:
    """``protocol.hopping_patterns`` into buffers of its own: the (len(slots), len(devices)) pilots."""
    out = np.empty((2, np.size(slots) * np.size(devices)), dtype=np.uint64)
    return hopping_patterns(devices, frame, slots, tau_p, root_seed, out)


@lru_cache(maxsize=16)
def _trapezoid(n: int, r: int):
    """Flat float-view positions of an (n, r) complex array's strictly lower entries (row-major) and diagonal."""
    rows, cols = np.tril_indices(n, -1, r)
    re = 2 * (rows * r + cols)
    return np.stack([re, re + 1], axis=1).ravel(), np.arange(r) * (2 * r + 2)


def full_train_slot(betas: np.ndarray, assignment: np.ndarray, tau_p: int, M: int, rng: np.random.Generator):
    """Training phase of one slot in the full rotated basis: (G, corr), the
    (r, K_a) channels and the pilot block correlated with the unitary book,
    in r = min(M, n) antenna coordinates, n = K_a + tau_p.

    Rotating the antennas keeps every inner product, so the slot draws the
    (r, n) QR factor R of X = [G diag(betas)^-1/2 | W], not X (complex
    Bartlett): CN(0, 1) strictly upper entries in row-major order of R^T,
    then R_ii = sqrt(Gamma(M - i, 1)). G = R[:, :K_a] sqrt(betas) and corr =
    R[:, K_a:] + sqrt(tau_p) G E, E the 0/1 map of device k to pilot
    ``assignment[k]``; an empty slot's corr is R. Unlike
    ``protocol.train_slot`` it keeps the inner products between pilots too.
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


def _one(betas, assignment, tau_p: int, r: int):
    """One slot as a block of one: its gains, its (1, K_a) pilots and its own ``block_arrays(1, ...)`` of r rows."""
    betas = np.asarray(betas, dtype=float)
    return betas, np.asarray(assignment, dtype=int)[None], block_arrays(1, betas.size, tau_p, r)


def train_one(betas, assignment, tau_p: int, M: int, rng: np.random.Generator):
    """``train_slot`` on one slot, a block of one: the slot's (G, corr)."""
    betas, A, out = _one(betas, assignment, tau_p, min(len(betas), M) + 1)
    G, corr = train_slot(betas, A, tau_p, M, rng, out=out)
    return G[0], corr[0]


def simulate_one(betas, assignment, tau_p: int, M: int, rng: np.random.Generator) -> SlotOutcome:
    """``simulate_slot`` on one slot, a block of one: the slot's outcome, its
    pilot ids and its (K_a,) SINRs without the block axis."""
    betas, A, out = _one(betas, assignment, tau_p, min(len(betas), M) + 1)
    slot = simulate_slot(betas, A, tau_p, M, rng, out=out)
    return SlotOutcome(slot.detected, slot.pilot_of_device[0], slot.device_sinr[0])


def mrc_one(G, betas, assignment, corr, yn2, tau_p: int):
    """``mrc_and_measure`` on one slot's (r, K_a) channels, (r, tau_p)
    correlation and (tau_p,) energies, a block of one: the slot's (K_a,) SINRs."""
    betas, A, out = _one(betas, assignment, tau_p, corr.shape[0])
    return mrc_and_measure(G[None], betas, A, corr[None], yn2[None], tau_p, out=out)[0]


def replay_frame(cfg, n_slots: int, rng: np.random.Generator, frame_index: int = 0):
    """The draws of ``protocol.run_frame`` made one slot at a time: the active
    set, its gains, then for each slot l the active devices' pilots over
    ``range(l, l + 1)`` and ``simulate_one``. Returns the active set and one
    ``SlotOutcome`` per slot, in slot order."""
    active = sample_active_set(ActivationLaw(cfg.K, cfg.p_a), rng)
    betas = sample_beta(cfg.model, rng, active.size)
    return active, [
        simulate_one(betas, patterns(active, frame_index, [l], cfg.tau_p, cfg.seed)[0], cfg.tau_p, cfg.M, rng)
        for l in range(n_slots)
    ]


def frame_outputs(cfg, slots):
    """(rates, detection map) of a frame from its slots: a device's rate adds
    log2(1 + SINR) slot by slot, in slot order, over the slots in which its
    pilot was detected, times the prelog over the slot count; row l of the
    (slots, tau_p) map marks slot l's detected pilots."""
    detected = np.zeros((len(slots), cfg.tau_p), dtype=bool)
    bits = np.zeros(slots[0].device_sinr.size)
    for l, out in enumerate(slots):
        detected[l, out.detected] = True
        bits += np.where(detected[l, out.pilot_of_device], np.log2(1.0 + out.device_sinr), 0.0)
    return (cfg.tau_u - cfg.tau_p) / cfg.tau_u * bits / len(slots), detected
