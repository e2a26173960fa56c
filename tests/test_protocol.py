import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainc, gammaincc
from scipy.stats import binom, chisquare

from pilothop.bounds import CollisionScenario, sinr1
from pilothop.channels import UniformPowerError
from pilothop import protocol
from pilothop.config import SystemConfig
from pilothop.protocol import (
    SCAN_ENTRIES,
    IdentificationReport,
    all_patterns,
    block_arrays,
    detect_pilots,
    estimate_sum_power,
    hopping_patterns,
    match_patterns,
    mrc_and_measure,
    pilot_energy,
    run_frame,
    simulate_slot,
    train_slot,
)
from reference import full_train_slot, hopping_table, mrc_one, pilot_sequences, simulate_one, train_one


def test_pilot_sequences_orthonormal():
    for tau_p in (1, 16, 33):
        P = pilot_sequences(tau_p)
        assert np.allclose(P.conj().T @ P, np.eye(tau_p), atol=1e-12)


def test_pilot_sequences_rejects_empty_book():
    with pytest.raises(ValueError):
        pilot_sequences(0)


@pytest.mark.parametrize("tau_p", [7, 33])
def test_hopping_patterns_uniform_per_slot(tau_p):
    # in every slot the population's pilots are uniform over the book
    pats = all_patterns(20000, 3, 10, tau_p, 123)
    pvalues = [chisquare(np.bincount(pats[:, l], minlength=tau_p)).pvalue for l in range(10)]
    assert min(pvalues) > 1e-4, pvalues


@pytest.mark.parametrize("tau_p", [7, 33])
def test_hopping_patterns_pairwise_collision_rate(tau_p):
    # two devices share a slot's pilot with probability 1/tau_p
    pats = all_patterns(20000, 0, 20, tau_p, 5)
    same = pats[0::2] == pats[1::2]
    p, n = 1.0 / tau_p, same.size
    assert abs(same.mean() - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_hopping_patterns_keyed_and_deterministic():
    assert not all_patterns(50, 0, 40, 1, 9).any()  # one pilot: all zeros
    a = hopping_patterns([17, 18], 0, range(2000), 7, 123)
    assert np.array_equal(a, hopping_patterns([17, 18], 0, range(2000), 7, 123))
    assert not np.array_equal(a[0], a[1])
    assert not np.array_equal(a, hopping_patterns([17, 18], 1, range(2000), 7, 123))
    # (seed, frame) keys as a pair, and a seed above 2**64 is not truncated
    assert not np.array_equal(hopping_patterns([3], 0, range(200), 33, 1), hopping_patterns([3], 1, range(200), 33, 0))
    assert not np.array_equal(hopping_patterns([3], 0, range(200), 33, 2**70),
                              hopping_patterns([3], 0, range(200), 33, 2**70 + 2**64))
    for bad in ([-1], [2**32]):
        with pytest.raises(ValueError, match="device ids"):
            hopping_patterns(bad, 0, range(10), 7, 1)
    for bad in (range(0, 10, 2), range(-1, 3)):
        with pytest.raises(ValueError, match="slots"):
            hopping_patterns([1], 0, bad, 7, 1)


@pytest.mark.parametrize("tau_p", [1, 33, 1000])
@pytest.mark.parametrize("seed", [0, 7, 2**70 + 11])
def test_hopping_patterns_match_the_counter_by_counter_hash(tau_p, seed):
    devices = np.array([0, 1, 5, 4095, 2**31 + 3, 2**32 - 1])
    table = hopping_table(devices, 3, 300, tau_p, seed)
    got = hopping_patterns(devices, 3, range(300), tau_p, seed)
    assert got.dtype == np.intp and np.array_equal(got, table)
    for a, b in ((0, 1), (0, 300), (17, 18), (120, 301), (299, 300), (40, 40)):
        window = hopping_patterns(devices, 3, range(a, b), tau_p, seed)
        assert np.array_equal(window, hopping_table(devices, 3, max(a, b), tau_p, seed)[:, a:b]), (a, b)


def _noise_corr(tau_p, M, rng):
    """Pilot correlation of a slot in which nobody transmits: one row, each
    pilot's noise norm sqrt(Gamma(M))."""
    return train_one(np.zeros(0), np.zeros(0, dtype=int), tau_p, M, rng)[1]


def _bartlett_factor(n, M, rng):
    """The (r, n) Bartlett factor R of an (M, n) CN(0, 1) block, r = min(M, n),
    as the full-basis reference draws it for an empty slot on n pilots."""
    return full_train_slot(np.zeros(0), np.zeros(0, dtype=int), n, M, rng)[1]


def test_detect_single_device_certain(rng):
    # a 10 dB device on pilot 5: correlation energy ~ tau_p*beta + 1 >> threshold
    hits, extras = 0, 0
    for _ in range(300):
        out = simulate_one(np.array([10.0]), np.array([5]), 12, 100, rng)
        hits += 5 in out.detected
        extras += out.detected.size - (5 in out.detected)
    assert hits == 300
    assert extras == 0


def test_detect_no_transmitters_false_alarm(rng):
    fa = sum(
        simulate_one(np.array([]), np.array([], dtype=int), 12, 100, rng).detected.size
        for _ in range(2000)
    )
    assert fa / (2000 * 12) < 1e-3


def test_detect_infinite_threshold_empty(rng, monkeypatch):
    monkeypatch.setattr(protocol, "ZETA", 1e9)
    pil = pilot_sequences(8)
    Y = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8)) + 40.0
    assert detect_pilots(pilot_energy(Y @ pil.conj()), 64).size == 0


@pytest.mark.parametrize("zeta", [0.5, 1.0])
def test_detection_false_alarm_rate_is_gamma_tail(rng, zeta, monkeypatch):
    # noise only: the per-antenna correlation energy is Gamma(M, 1/M), so a
    # pilot clears t = 1 + zeta*sqrt(2/M) with probability Q(M, M*t)
    monkeypatch.setattr(protocol, "ZETA", zeta)
    M, tau_p, slots = 100, 4, 2000
    alarms = sum(detect_pilots(pilot_energy(_noise_corr(tau_p, M, rng)), M).size for _ in range(slots))
    p = gammaincc(M, M * (1 + zeta * math.sqrt(2 / M)))
    assert p == pytest.approx({0.5: 0.2345, 1.0: 0.0830}[zeta], abs=1e-4)
    n = slots * tau_p
    assert abs(alarms / n - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_detection_threshold_is_set_by_the_antenna_count_not_the_rows(rng, monkeypatch):
    # a noise-only correlation has r = 1 < M rows, yet each column's energy
    # is Gamma(M, 1): detection at M gets the Gamma(M, 1/M) tail, while reading
    # the row count would flag nearly every pilot
    monkeypatch.setattr(protocol, "ZETA", 1.0)
    M, tau_p, slots = 40, 6, 3000
    corrs = [_noise_corr(tau_p, M, rng) for _ in range(slots)]
    assert corrs[0].shape == (1, tau_p)
    alarms = sum(detect_pilots(pilot_energy(c), M).size for c in corrs)
    p = gammaincc(M, M * (1 + math.sqrt(2 / M)))
    n = slots * tau_p
    assert abs(alarms / n - p) <= 3 * math.sqrt(p * (1 - p) / n)
    assert sum(detect_pilots(pilot_energy(c), len(c)).size for c in corrs) > 0.99 * n


def test_detection_statistic_mean_noise_only(rng):
    stats = []
    for _ in range(500):
        corr = _noise_corr(8, 64, rng)
        stats.append((np.abs(corr) ** 2).sum(axis=0) / 64)
    assert np.mean(stats) == pytest.approx(1.0, abs=0.02)


def test_estimate_sum_power_concentration(rng):
    est = np.array([
        estimate_sum_power(train_one(np.array([10.0]), np.array([0]), 33, 400, rng)[1][:, 0], 33, 400)
        for _ in range(400)
    ])
    # the pilot's observation is CN(0, (33*10 + 1) I_400), so |est - 10| <= 1
    # holds with a Gamma(400, 1) probability of 0.954: match it to 3 sigma
    s2 = 33 * 10.0 + 1.0
    p = gammainc(400, (33 * 11 + 1) * 400 / s2) - gammainc(400, (33 * 9 + 1) * 400 / s2)
    cover = float(np.mean(np.abs(est - 10.0) <= 1.0))
    assert abs(cover - p) <= 3 * math.sqrt(p * (1 - p) / est.size)
    # two equal colliders: estimate approaches the summed gain
    est2 = np.array([
        estimate_sum_power(train_one(np.array([10.0, 10.0]), np.array([3, 3]), 16, 2048, rng)[1][:, 3], 16, 2048)
        for _ in range(100)
    ])
    assert est2.mean() == pytest.approx(20.0, rel=0.05)


def test_estimate_sum_power_clamped_at_zero(rng):
    y = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / math.sqrt(2)
    assert estimate_sum_power(0.0 * y, 8, 64) == 0.0
    assert isinstance(estimate_sum_power(y, 8, 64), float)  # one column, one float
    vals = [estimate_sum_power((rng.standard_normal(64) + 1j * rng.standard_normal(64)) / math.sqrt(2), 8, 64)
            for _ in range(200)]
    assert np.mean(vals) < 0.05


def test_estimate_sum_power_error_scales_inversely_with_antennas(rng):
    Ms = [50, 100, 200, 400, 800]
    variances = []
    for M in Ms:
        es = [
            estimate_sum_power(train_one(np.array([10.0]), np.array([0]), 16, M, rng)[1][:, 0], 16, M)
            for _ in range(300)
        ]
        variances.append(np.var(es))
    slope = np.polyfit(np.log(Ms), np.log(variances), 1)[0]
    assert -1.2 <= slope <= -0.8


def test_mrc_large_array_matches_conditional_sinr(rng):
    M = 8192
    s = CollisionScenario(10.0, (), 1, 16, M)
    target = sinr1(s, [])
    vals = [
        simulate_one(np.array([10.0]), np.array([2]), 16, M, rng).device_sinr[0]
        for _ in range(12)
    ]
    assert np.mean(vals) == pytest.approx(target, rel=0.05)


def test_forced_collision_jensen_bound(rng):
    # two devices pinned to the same pilot every slot, equal gains
    s = CollisionScenario(10.0, (10.0,), 2, 20, 100)
    bound = math.log2(1.0 + sinr1(s, []))
    vals = np.array([
        math.log2(1.0 + simulate_one(np.array([10.0, 10.0]), np.array([3, 3]), 20, 100, rng).device_sinr[0])
        for _ in range(2000)
    ])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert vals.mean() >= bound - 3 * se
    assert abs(vals.mean() - bound) / bound < 0.15


@pytest.mark.parametrize("tau_p, M, K_a", [
    (8, 2, 5),      # M = 2, K_a > M
    (3, 2, 2),      # M = 2 = K_a
    (6, 4, 9),      # K_a > M
    (12, 16, 5),    # most pilots unused
    (20, 64, 12),
    (1, 8, 3),      # one pilot: every device collides
])
def test_slot_sinr_averages_to_sinr1_of_its_scenario(tau_p, M, K_a):
    # simulator -> sinr1, the first link of ROADMAP item 2: with gains and pilots held, a
    # device's inverse SINR averages over channels and noise to 1/sinr1 of its scenario
    # (its colliders, and the others' gains): given the pilot's observation y each of its
    # terms is a constant or, in mean, a constant over ||y||^2, and E[1/||y||^2] =
    # 1/((M - 1)(1 + tau_p S)), S the pilot's summed gain
    rng = np.random.default_rng(tau_p * 1000 + M * 10 + K_a)
    assignment = rng.integers(0, tau_p, K_a)
    betas = 10.0 ** rng.uniform(-1.0, 2.0, K_a)
    n, block = 4000, 200
    A, arrays = np.tile(assignment, (block, 1)), block_arrays(block, K_a, tau_p, min(K_a, M) + 1)
    inv = np.concatenate([1.0 / simulate_slot(betas, A, tau_p, M, rng, out=arrays).device_sinr
                          for _ in range(n // block)])
    z = []
    for k in range(K_a):
        shared = assignment == assignment[k]
        shared[k] = False
        s = CollisionScenario(betas[k], betas[shared], K_a, tau_p, M)
        want = 1.0 / sinr1(s, betas[assignment != assignment[k]])
        z.append((inv[:, k].mean() - want) / (inv[:, k].std(ddof=1) / math.sqrt(n)))
    assert max(map(abs, z)) < 4.5, z


def _mrc_reference(G, betas, assignment, corr, tau_p):
    """The receiver as one loop over the pilots in use: the slow, obvious
    form of ``mrc_and_measure``."""
    sinr = np.zeros(betas.size)
    for j in np.unique(assignment):
        members = np.flatnonzero(assignment == j)
        y = corr[:, j]
        yn2 = float(np.vdot(y, y).real)
        total = float(betas[members].sum())
        scale = np.sqrt(tau_p) * betas[members] / (tau_p * total + 1.0)
        ghat_dot = scale * yn2  # y^H ghat_m, real by construction
        u = y.conj() @ G  # y^H g_k for every active device
        eps_dot = ghat_dot - u[members]
        out = np.delete(np.abs(u) ** 2, members)
        ee = float(np.sum(np.abs(eps_dot) ** 2))
        oi = float(out.sum())
        gd2 = np.abs(ghat_dot) ** 2
        gd2_tot = float(gd2.sum())
        for idx, k in enumerate(members):
            sig = gd2[idx]
            pc = gd2_tot - sig
            sinr[k] = sig / (pc + ee + oi + yn2)
    return sinr


def _training_slot(rng, tau_p, M, assignment):
    """Channels, gains and pilot correlation of one slot with spread gains."""
    assignment = np.asarray(assignment, dtype=int)
    betas = 10.0 ** rng.uniform(-1.0, 2.0, assignment.size)
    G, corr = train_one(betas, assignment, tau_p, M, rng)
    return G, betas, assignment, corr


@pytest.mark.parametrize("tau_p, M, assignment", [
    (1, 64, [0, 0, 0]),                 # one pilot
    (12, 32, []),                       # nobody active
    (12, 32, [7]),                      # one device
    (8, 100, [5] * 20),                 # every device on one pilot
    (33, 100, [0, 4, 4, 30]),           # most pilots unused
    (4, 2, [0, 1, 1, 2, 2, 2, 3, 0]),  # fewer antennas than devices
])
def test_mrc_matches_per_pilot_loop(rng, tau_p, M, assignment):
    G, betas, assignment, corr = _training_slot(rng, tau_p, M, assignment)
    got = mrc_one(G, betas, assignment, corr, pilot_energy(corr), tau_p)
    assert got.shape == (len(assignment),)
    np.testing.assert_allclose(got, _mrc_reference(G, betas, assignment, corr, tau_p), rtol=1e-12, atol=0)


def test_mrc_matches_per_pilot_loop_on_random_slots(rng):
    for _ in range(300):
        tau_p, M = int(rng.integers(1, 41)), int(rng.integers(1, 129))
        assignment = rng.integers(0, tau_p, int(rng.integers(0, 61)))
        G, betas, assignment, corr = _training_slot(rng, tau_p, M, assignment)
        np.testing.assert_allclose(mrc_one(G, betas, assignment, corr, pilot_energy(corr), tau_p),
                                   _mrc_reference(G, betas, assignment, corr, tau_p), rtol=1e-12, atol=0)


def _pilot_book_slot(betas, assignment, tau_p, M, R):
    """The training phase written through the pilot book P, on the Bartlett
    factor R = [R_G | R_W] zero-padded to M antennas: G = [R_G sqrt(betas); 0]
    and N_p = [R_W; 0] @ P^T, sent as Y_p and correlated with P^*."""
    K_a = betas.size
    pad = np.zeros((M, K_a + tau_p), dtype=complex)
    pad[:R.shape[0]] = R
    pil = pilot_sequences(tau_p)
    G = pad[:, :K_a] * np.sqrt(betas)
    N_p = pad[:, K_a:] @ pil.T
    Y_p = np.sqrt(tau_p) * (G @ pil.T[assignment]) + N_p  # rows of pil.T are the sequences in use
    return G, Y_p @ pil.conj()


def test_rotated_training_matches_the_zero_padded_pilot_book_path(rng):
    # the full-basis reference: an empty slot on K_a + tau_p pilots draws the
    # same factor R as a slot of K_a devices on tau_p pilots; sent through the
    # pilot book, zero-padded to M antennas, R gives the same SINRs and pilot
    # energies as the rotated path
    cases = [(4, 2, [0, 1, 1, 2, 2, 2, 3, 0])]  # fewer antennas than devices
    for _ in range(300):
        tau_p, M = int(rng.integers(1, 41)), int(rng.integers(1, 129))
        cases.append((tau_p, M, rng.integers(0, tau_p, int(rng.integers(0, 61)))))
    for tau_p, M, assignment in cases:
        assignment = np.asarray(assignment, dtype=int)
        betas = 10.0 ** rng.uniform(-1.0, 2.0, assignment.size)
        seed = int(rng.integers(2**32))
        G, corr = full_train_slot(betas, assignment, tau_p, M, np.random.default_rng(seed))
        R = _bartlett_factor(assignment.size + tau_p, M, np.random.default_rng(seed))
        G_pad, corr_pad = _pilot_book_slot(betas, assignment, tau_p, M, R)
        r = min(M, assignment.size + tau_p)
        assert G.shape == (r, assignment.size) and corr.shape == (r, tau_p)
        sinr = mrc_one(G, betas, assignment, corr, pilot_energy(corr), tau_p)
        padded = mrc_one(G_pad, betas, assignment, corr_pad, pilot_energy(corr_pad), tau_p)
        np.testing.assert_allclose(sinr, padded, rtol=1e-12, atol=0)
        np.testing.assert_allclose(sinr, _mrc_reference(G_pad, betas, assignment, corr_pad, tau_p), rtol=1e-12, atol=0)
        energy = (np.abs(corr) ** 2).sum(axis=0)
        np.testing.assert_allclose(energy, (np.abs(corr_pad) ** 2).sum(axis=0), rtol=1e-12, atol=0)


def _slot_statistics(G, corr, assignment):
    """What ``train_slot`` draws, taken from a full slot by QR: span(G)'s
    coordinates of G and of each used pilot's observation, and the rest of
    each pilot's norm in one more coordinate (all of it for an unused pilot)."""
    Q = np.linalg.qr(G)[0]  # m = min(K_a, M) columns
    energy = pilot_energy(corr)
    used = np.isin(np.arange(corr.shape[1]), assignment)
    proj = np.where(used, Q.conj().T @ corr, 0.0)
    rest = np.sqrt(np.maximum(energy - pilot_energy(proj), 0.0))
    return np.vstack([Q.conj().T @ G, np.zeros((1, G.shape[1]))]), np.vstack([proj, rest])


def test_slot_statistics_reproduce_the_full_slot(rng):
    # the receiver reads only G's inner products with G and with the used
    # pilots' observations, and each pilot's energy: the statistics train_slot
    # draws, taken by QR from a full-basis slot, give that slot's energies and SINRs
    cases = [(5, 16, []), (4, 2, [0, 1, 1, 2, 2, 2, 3, 0]), (3, 2, [2]), (6, 3, [0, 0, 5]), (7, 30, [6, 6])]
    for _ in range(300):
        tau_p, M = int(rng.integers(1, 20)), int(rng.integers(2, 40))
        cases.append((tau_p, M, rng.integers(0, tau_p, int(rng.integers(0, 30)))))
    assert any(len(a) >= M for _, M, a in cases) and any(M == 2 for _, M, _ in cases)
    for tau_p, M, assignment in cases:
        assignment = np.asarray(assignment, dtype=int)
        betas = 10.0 ** rng.uniform(-1.0, 2.0, assignment.size)
        G, corr = full_train_slot(betas, assignment, tau_p, M, rng)
        G_s, corr_s = _slot_statistics(G, corr, assignment)
        assert G_s.shape == (min(assignment.size, M) + 1, assignment.size)
        energy = pilot_energy(corr)
        np.testing.assert_allclose(pilot_energy(corr_s), energy, rtol=1e-12, atol=0)
        np.testing.assert_allclose(mrc_one(G_s, betas, assignment, corr_s, pilot_energy(corr_s), tau_p),
                                   mrc_one(G, betas, assignment, corr, energy, tau_p), rtol=1e-12, atol=0)


def _slot_draws(draw, betas, assignment, tau_p, M, n, seed):
    """Per-device log2(1 + SINR) and per-pilot energy / M of ``n`` slots of
    ``draw``, the statistics draw or the full-basis reference, one row a slot."""
    rng = np.random.default_rng(seed)
    rates, energies = np.empty((n, betas.size)), np.empty((n, tau_p))
    for l in range(n):
        G, corr = draw(betas, assignment, tau_p, M, rng)
        energies[l] = pilot_energy(corr)
        rates[l] = np.log2(1.0 + mrc_one(G, betas, assignment, corr, energies[l], tau_p))
    return rates, energies / M


@pytest.mark.parametrize("tau_p, M, assignment", [
    (39, 100, "37"),                 # slot-dense's shape
    (33, 100, "30"),                 # slot-mmtc's shape
    (20, 50, "25"),
    (16, 20, "10"),
    (4, 8, [0, 0, 1]),               # a collision and two unused pilots
    (3, 2, [0, 1, 1, 2]),            # K_a > M = 2
    (6, 4, [5, 5, 5, 5, 5]),         # everyone on one pilot, K_a > M
    (12, 12, list(range(12))),       # K_a = M, every pilot used once
    (10, 3, [0, 0, 2, 4, 4, 9]),     # K_a > M, unused pilots
    (1, 64, [0, 0, 0]),              # one pilot
    (8, 32, [7]),                    # one device
    (5, 16, []),                     # nobody active
    (2, 6, [0, 1, 0, 1, 0, 1, 0]),   # K_a > M on two pilots
])
def test_statistics_draw_has_the_full_slot_law(tau_p, M, assignment):
    # two-sample z-tests of the mean rate of every device and mean energy of
    # every pilot, the statistics draw against the full-basis reference
    rng = np.random.default_rng(tau_p * 1000 + M)
    if isinstance(assignment, str):
        assignment = rng.integers(0, tau_p, int(assignment))
    assignment = np.asarray(assignment, dtype=int)
    betas = 10.0 ** rng.uniform(-1.0, 2.0, assignment.size)
    n = 1500
    new = _slot_draws(train_one, betas, assignment, tau_p, M, n, 1)
    ref = _slot_draws(full_train_slot, betas, assignment, tau_p, M, n, 2)
    z = []
    for a, b in zip(new, ref):
        se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / n)
        z += list((a.mean(axis=0) - b.mean(axis=0)) / se)
    assert len(z) == assignment.size + tau_p and max(map(abs, z)) < 4.5, z


@pytest.mark.parametrize("tau_p, M, K_a", [(39, 100, 37), (5, 4, 7), (8, 2, 3), (6, 16, 0), (1, 8, 4)])
def test_a_block_of_slots_equals_its_slots_one_at_a_time(tau_p, M, K_a):
    rng = np.random.default_rng(K_a * 100 + M)
    betas = 10.0 ** rng.uniform(-1.0, 1.0, K_a)
    A = rng.integers(0, tau_p, (9, K_a))
    arrays = block_arrays(9, K_a, tau_p, min(K_a, M) + 1)
    G, corr = (x.copy() for x in train_slot(betas, A, tau_p, M, np.random.default_rng(5), out=arrays))
    block = simulate_slot(betas, A, tau_p, M, np.random.default_rng(5), out=arrays)
    assert block.device_sinr.shape == block.pilot_of_device.shape == (9, K_a)
    one, again = np.random.default_rng(5), np.random.default_rng(5)
    for b in range(9):
        out = simulate_one(betas, A[b], tau_p, M, one)
        G_b, corr_b = train_one(betas, A[b], tau_p, M, again)
        assert np.array_equal(G_b, G[b]) and np.array_equal(corr_b, corr[b])
        assert np.array_equal(out.device_sinr, block.device_sinr[b])
        assert np.array_equal(out.detected + b * tau_p, block.detected[block.detected // tau_p == b])
        assert np.array_equal(out.pilot_of_device + b * tau_p, block.pilot_of_device[b])
    assert one.random() == again.random()


@pytest.mark.parametrize("tau_p, M, K_a", [(39, 100, 37), (5, 4, 7)])  # m = K_a < M, m = M < K_a
@pytest.mark.parametrize("slots", [6, 4, 1])  # a full block, a shorter last block, a block of one
def test_caller_supplied_arrays_give_the_bits_of_fresh_ones(tau_p, M, K_a, slots):
    # the arrays start as NaN, so any entry a block reads without writing or zeroing it
    # first would show in the outputs; a shorter block writes leading views of them
    rng = np.random.default_rng(K_a)
    betas = 10.0 ** rng.uniform(-1.0, 1.0, K_a)
    A = rng.integers(0, tau_p, (slots, K_a))
    arrays = block_arrays(6, K_a, tau_p, min(K_a, M) + 1)

    def spoiled():
        for a in arrays.values():
            a.view(float).fill(np.nan)
        return arrays

    def fresh():
        return block_arrays(slots, K_a, tau_p, min(K_a, M) + 1)

    G, corr = train_slot(betas, A, tau_p, M, np.random.default_rng(5), out=fresh())
    G_w, corr_w = train_slot(betas, A, tau_p, M, np.random.default_rng(5), out=spoiled())
    assert np.array_equal(G_w, G) and np.array_equal(corr_w, corr)
    assert np.shares_memory(G_w, arrays["Gt"]) and np.shares_memory(corr_w, arrays["Ct"])
    energy = pilot_energy(corr)
    sinr = mrc_and_measure(G, betas, A, corr, energy, tau_p, out=fresh())
    assert np.array_equal(mrc_and_measure(G, betas, A, corr, energy, tau_p, out=spoiled()), sinr)
    want = simulate_slot(betas, A, tau_p, M, np.random.default_rng(5), out=fresh())
    got = simulate_slot(betas, A, tau_p, M, np.random.default_rng(5), out=spoiled())
    spoiled()  # no output is a view of the arrays
    for name in ("detected", "pilot_of_device", "device_sinr"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("M, n", [(6, 4), (4, 7)])
def test_bartlett_factor_gram_has_wishart_moments(M, n):
    # the full-basis reference's factor: R^H R is distributed as X^H X for X
    # (M, n) i.i.d. CN(0, 1): its diagonal is Gamma(M, 1), mean and variance M;
    # each off-diagonal entry is a sum of M products of independent CN(0, 1)
    # entries, mean 0 and E|.|^2 = M
    rng, trials = np.random.default_rng(21), 20000
    R = _bartlett_factor(n, M, rng)
    assert R.shape == (min(M, n), n) and not np.tril(R, -1).any()
    assert np.all(np.diag(R).real > 0) and not np.diag(R).imag.any()
    grams = np.array([R.conj().T @ R for R in (_bartlett_factor(n, M, rng) for _ in range(trials))])
    diag = grams[:, np.arange(n), np.arange(n)].real
    rows, cols = np.triu_indices(n, 1)
    off = grams[:, rows, cols]
    z = [
        (diag.mean(axis=0) - M) / math.sqrt(M / trials),
        (diag.var(axis=0) - M) / math.sqrt((2 * M**2 + 6 * M) / trials),
        off.mean(axis=0).real / math.sqrt(M / 2 / trials),
        off.mean(axis=0).imag / math.sqrt(M / 2 / trials),
        ((np.abs(off) ** 2).mean(axis=0) - M) / math.sqrt((M**2 + 2 * M) / trials),
    ]
    assert max(float(np.abs(v).max()) for v in z) < 4.5, z


def _statistics_replay(rng, betas, assignment, tau_p, M):
    """One slot's (G, corr) drawn by hand in ``train_slot``'s documented order.

    Normals: the strictly upper entries of the (m, K_a) factor R, column by
    column, then m coordinates for each used pilot in pilot order. Gammas:
    R's diagonal, then one per pilot, Gamma(M - m) if used, else Gamma(M).
    G = R sqrt(betas), column k scaled as its draws are placed. Exact to the
    bit when no two devices share a pilot.
    """
    K_a, m = betas.size, min(betas.size, M)
    used = sorted(set(np.asarray(assignment).tolist()))
    upper = [(i, k) for k in range(K_a) for i in range(min(k, m))]
    z = rng.standard_normal(2 * (len(upper) + m * len(used)))
    w = [complex(z[2 * t], z[2 * t + 1]) for t in range(z.size // 2)]
    G = np.zeros((m + 1, K_a), dtype=complex)
    for t, (i, k) in enumerate(upper):
        G[i, k] = w[t] * math.sqrt(0.5 * betas[k])
    noise = np.zeros((m + 1, tau_p), dtype=complex)
    for t, j in enumerate(used):
        noise[:m, j] = np.array(w[len(upper) + t * m:len(upper) + (t + 1) * m]) * math.sqrt(0.5)
    g = rng.standard_gamma([M - i for i in range(m)] + [M - m if j in used else M for j in range(tau_p)])
    G[np.arange(m), np.arange(m)] = np.sqrt(g[:m] * betas[:m])
    noise[m] = np.sqrt(g[m:])
    corr = noise.copy()
    for k, j in enumerate(assignment):
        corr[:, j] += math.sqrt(tau_p) * G[:, k]
    return G, corr


def test_empty_slot_draws_only_the_noise_block():
    # nobody transmits: the slot draws one Gamma(M) noise energy per pilot and no normal
    M, tau_p = 16, 5
    rng, replay = np.random.default_rng(11), np.random.default_rng(11)
    out = simulate_one([], [], tau_p, M, rng)
    _, corr = _statistics_replay(replay, np.zeros(0), [], tau_p, M)
    assert corr.shape == (1, tau_p)
    assert np.array_equal(out.detected, detect_pilots(pilot_energy(corr), M))
    assert out.device_sinr.shape == (0,)
    assert rng.random() == replay.random()  # both streams stand at the same place


@pytest.mark.parametrize("tau_p, M, assignment", [
    (8, 64, [3, 5]),         # m = K_a < M: the rest of a used pilot's noise is Gamma(M - K_a)
    (6, 2, [0, 2, 3]),       # K_a > M = m: a used pilot's noise lies in span(G)
    (4, 3, [1, 0, 3]),       # K_a = M
    (5, 40, [4]),            # one device, four pilots unused
])
def test_training_draws_follow_the_documented_order(tau_p, M, assignment):
    betas = np.array([10.0, 6.0, 0.5][:len(assignment)])
    G, corr = train_one(betas, np.array(assignment), tau_p, M, np.random.default_rng(4))
    replay = np.random.default_rng(4)
    G_ref, corr_ref = _statistics_replay(replay, betas, assignment, tau_p, M)
    assert np.array_equal(G, G_ref) and np.array_equal(corr, corr_ref)
    m = min(len(assignment), M)
    assert G.shape == (m + 1, len(assignment)) and not G[m].any() and not np.tril(G, -1).any()
    unused = np.setdiff1d(np.arange(tau_p), assignment)
    assert not corr[:m, unused].any() and np.all(corr[m, unused].real > 0)
    rng = np.random.default_rng(4)
    train_one(betas, np.array(assignment), tau_p, M, rng)
    assert rng.random() == replay.random()  # both streams stand at the same place


def _table_rows(patterns):
    """``patterns_of`` over a whole (K, L) pattern table."""
    return lambda devices, slots: patterns[devices][:, slots]


def _detection_map(sets, tau_p):
    """The (L, tau_p) boolean map that ``match_patterns`` reads, from each slot's detected pilot indices."""
    D = np.zeros((len(sets), tau_p), dtype=bool)
    for l, det in enumerate(sets):
        D[l, np.asarray(det, dtype=int)] = True
    return D


# an active set for match_patterns calls that check the identified devices alone
NOBODY = np.zeros(0, dtype=int)


def test_match_patterns_trivial_and_reports():
    patterns = np.array([[1, 2, 3, 0], [0, 0, 1, 1], [2, 2, 2, 2]])
    detected = _detection_map([[1], [2], [3], [0]], 4)
    rep = match_patterns(detected, _table_rows(patterns), 3, 4, np.array([0]))
    assert np.array_equal(rep.identified, np.array([0]))
    assert rep.missed.size == 0 and rep.false.size == 0


def test_match_patterns_single_slot_is_ambiguous():
    patterns = np.array([[1], [1], [2]])
    rep = match_patterns(_detection_map([[1]], 4), _table_rows(patterns), 3, 4, NOBODY)
    assert np.array_equal(rep.identified, np.array([0, 1]))


def test_match_patterns_false_identification_tail(rng):
    # inactive device vs fully loaded detected sets of 10 of 20 pilots:
    # per-slot coincidence is Bernoulli(1/2), so false identification needs
    # >= ceil(0.9*40) = 36 hits out of 40
    tail = binom.sf(35, 40, 0.5)
    assert tail < 1e-6  # scipy oracle: ~9.3e-8
    L, tau_p, trials = 40, 20, 40000
    detected = _detection_map([np.arange(10)] * L, tau_p)
    patterns = rng.integers(0, tau_p, size=(trials, L))
    rep = match_patterns(detected, _table_rows(patterns), trials, tau_p, NOBODY)
    assert rep.identified.size <= max(1, 10 * trials * tail)


def test_match_patterns_validates_inputs():
    with pytest.raises(ValueError):
        match_patterns(np.zeros((0, 4), dtype=bool), _table_rows(np.zeros((2, 4), dtype=int)), 2, 4, NOBODY)


def test_match_patterns_reads_a_detection_map_as_its_index_sets(rng, set_rho):
    # run_frame hands over its (L, tau_p) boolean map of detected pilots
    K, L, tau_p = 300, 40, 6
    table = rng.integers(0, tau_p, (K, L))
    D = rng.random((L, tau_p)) < 0.6
    sets = [np.flatnonzero(row) for row in D]
    for rho in (0.5, 0.9):
        set_rho(rho)
        got = match_patterns(D, _table_rows(table), K, tau_p, np.array([3, 7]))
        want = _match_reference(sets, table, tau_p, rho=rho, active=np.array([3, 7]))
        for name in ("identified", "missed", "false"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # a map of the wrong width, or of 0/1 integers, which would index slots and not select pilots
    for bad in (D[:, :-1], D.astype(int)):
        with pytest.raises(ValueError, match="detection map"):
            match_patterns(bad, _table_rows(table), K, tau_p, NOBODY)


def _match_reference(detected_sets, patterns, tau_p, rho=0.9, active=NOBODY):
    """Identification against the whole (K, L) pattern table at once: the
    slow, obvious form of ``match_patterns``."""
    L = len(detected_sets)
    if L < 1:
        raise ValueError("need at least one observed slot")
    D = _detection_map(detected_sets, tau_p)
    hits = D[np.arange(L)[None, :], patterns[:, :L]]
    identified = np.flatnonzero(hits.mean(axis=1) >= rho)
    missed = np.setdiff1d(active, identified)
    false = np.setdiff1d(identified, active)
    return IdentificationReport(identified, missed, false)


# rho = 0.7 was the only threshold before the scan dropped devices; its cases keep their ids
@pytest.mark.parametrize("size, L, rho", [
    pytest.param(size, L, rho, id=f"{size}-{L}" if rho == 0.7 else f"{size}-{L}-{rho}")
    for rho in (0.5, 0.7, 0.9, 1.0) for L in (1, 5, 500) for size in ("one", "block-1", "block", "block+1", "3block+7")
])
def test_match_patterns_blocked_scan_matches_whole_table(L, size, rho, set_rho):
    block = SCAN_ENTRIES // L
    K = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1, "3block+7": 3 * block + 7}[size]
    tau_p, frame, seed = 33, 4, 2**70 + 11
    rng = np.random.default_rng(K * 1000 + L)
    active = np.sort(rng.choice(K, size=min(K, 5), replace=False))
    own = hopping_patterns(active, frame, range(L), tau_p, seed)
    table = all_patterns(K, frame, L, tau_p, seed)
    assert np.array_equal(own, table[active])
    # the active pilots, each missed with probability 0.2, plus false alarms
    detected = [np.union1d(own[rng.random(active.size) > 0.2, l], np.flatnonzero(rng.random(tau_p) < 0.1))
                for l in range(L)]
    set_rho(rho)
    got = match_patterns(_detection_map(detected, tau_p), lambda d, s: hopping_patterns(d, frame, s, tau_p, seed),
                         K, tau_p, active)
    want = _match_reference(detected, table, tau_p, rho=rho, active=active)
    for name in ("identified", "missed", "false"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _counting(patterns_of):
    """``patterns_of`` that records how many pattern entries each call asks for."""
    asked = []

    def counted(devices, slots):
        asked.append(len(devices) * len(slots))
        return patterns_of(devices, slots)
    return counted, asked


@pytest.mark.parametrize("rho", [0.5, 0.9, 1.0])
def test_match_patterns_scans_everyone_when_every_pilot_is_detected(rho, set_rho):
    # nobody ever misses, so no device can be dropped and every entry is hashed once
    K, L, tau_p = 2 * SCAN_ENTRIES // 7 + 3, 7, 5
    patterns_of, asked = _counting(lambda d, s: hopping_patterns(d, 1, s, tau_p, 3))
    set_rho(rho)
    rep = match_patterns(np.ones((L, tau_p), dtype=bool), patterns_of, K, tau_p, np.array([2, 9]))
    assert np.array_equal(rep.identified, np.arange(K))
    assert rep.missed.size == 0 and np.array_equal(rep.false, np.setdiff1d(np.arange(K), [2, 9]))
    assert sum(asked) == K * L


def test_match_patterns_blocks_stay_bounded_when_survivors_cluster(set_rho):
    # the high half of the ids misses every slot, so the survivors of the first
    # 11-slot chunk fill whole id windows twice over; the even ones among them
    # then miss 11 more slots, one more than rho = 0.75 of 40 allows
    K, L, tau_p = 6 * SCAN_ENTRIES // 10 + 5, 40, 4
    ids = np.arange(K)[:, None]
    table = np.where((ids >= K // 2) | ((ids % 2 == 0) & (np.arange(L) >= 11) & (np.arange(L) < 22)), 2, 1)
    patterns_of, asked = _counting(_table_rows(table))
    detected = [np.array([0, 1])] * L
    set_rho(0.75)
    got = match_patterns(_detection_map(detected, tau_p), patterns_of, K, tau_p, NOBODY)
    assert np.array_equal(got.identified, _match_reference(detected, table, tau_p, rho=0.75).identified)
    assert np.array_equal(got.identified, np.arange(1, K // 2, 2))
    assert max(asked) <= SCAN_ENTRIES and sum(asked) < K * L


def test_match_patterns_hashes_at_most_half_the_table_at_mmtc_scale():
    # slot-mmtc's shape: about 20 of 33 pilots are in use per slot, so a random
    # device misses about 40% of slots and soon cannot reach rho = 0.9
    K, L, tau_p, frame, seed = 100_000, 200, 33, 0, 1
    rng = np.random.default_rng(5)
    active = np.sort(rng.choice(K, size=30, replace=False))
    own = hopping_patterns(active, frame, range(L), tau_p, seed)
    detected = [np.unique(own[:, l]) for l in range(L)]
    patterns_of, asked = _counting(lambda d, s: hopping_patterns(d, frame, s, tau_p, seed))
    rep = match_patterns(_detection_map(detected, tau_p), patterns_of, K, tau_p, active)
    assert rep.missed.size == 0 and rep.false.size == 0
    assert sum(asked) <= K * L // 2, sum(asked) / (K * L)


def _frame_cfg(**kw):
    base = dict(M=64, K=60, tau_u=60, tau_p=12, p_a=0.1, seed=9)
    base.update(kw)
    return SystemConfig(**base)


def test_run_frame_identifies_single_device(power_controlled):
    # one device of 60 active at this seed
    cfg = _frame_cfg(model=power_controlled, p_a=1 / 60)
    fr = run_frame(cfg, 50, np.random.default_rng(3))
    (device,) = fr.active
    assert device in fr.identification.identified
    assert fr.identification.false.size == 0
    assert fr.rates.shape == (1,)
    assert fr.sum_rate > 0


def test_run_frame_takes_its_frame_key_once(power_controlled, monkeypatch):
    # one slot per block: 50 blocks and the identification scan share one frame key
    monkeypatch.setattr(protocol, "SLOT_ENTRIES", 1)
    protocol._frame_key.cache_clear()
    run_frame(_frame_cfg(model=power_controlled), 50, np.random.default_rng(3))
    info = protocol._frame_key.cache_info()
    assert info.misses == 1 and info.hits >= 50, info


def test_run_frame_memory_stays_bounded_at_mmtc_scale(power_controlled):
    # K x L = 2e7 pattern entries: a (K, L) table alone would take 160 MB
    cfg = SystemConfig(M=100, K=100_000, tau_u=100, tau_p=33, p_a=3e-4, model=power_controlled, seed=1)
    tracemalloc.start()
    try:
        fr = run_frame(cfg, 200, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fr.active.size > 0
    assert fr.identification.missed.size == 0 and fr.identification.false.size == 0
    assert peak < 16e6, f"traced peak {peak / 1e6:.1f} MB"


def test_run_frame_scratch_does_not_grow_with_the_frame(monkeypatch):
    # slot-dense's point: the blocks' arrays are sized by a block, not by the frame,
    # so a frame keeps per slot only its detection map, a byte per pilot. The
    # identification scan, whose blocks are bounded by SCAN_ENTRIES, is left out here
    cfg = SystemConfig(M=100, K=800, tau_u=100, tau_p=39, p_a=40.4638937 / 800,
                       model=UniformPowerError(10.0, 0.0), seed=5)
    nobody = IdentificationReport(*[np.zeros(0, dtype=int)] * 3)
    monkeypatch.setattr(protocol, "match_patterns", lambda *args, **kwargs: nobody)
    peaks = {}
    for n_slots in (100, 2000):
        tracemalloc.start()
        try:
            run_frame(cfg, n_slots, np.random.default_rng(1))
            peaks[n_slots] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] - peaks[100] <= 1900 * cfg.tau_p + 16_384, peaks


def test_run_frame_does_not_depend_on_the_block_budget(monkeypatch, replayed):
    # one slot a block, three, and the whole frame in one block each give the
    # bits of the frame replayed slot by slot
    cfg = SystemConfig(M=32, K=60, tau_u=40, tau_p=8, p_a=0.15, model=UniformPowerError(0.15, 0.5), seed=3)
    frames = []
    for budget in (1, 700, protocol.SLOT_ENTRIES):
        monkeypatch.setattr(protocol, "SLOT_ENTRIES", budget)
        frames.append(replayed(cfg, 60, 5)[0])
    a = frames[0]
    entries = (a.active.size + cfg.tau_p) * (a.active.size + 1)
    assert 1 < 700 // entries < 60 <= protocol.SLOT_ENTRIES // entries
    for b in frames[1:]:
        assert a.sum_rate == b.sum_rate
        for name in ("identified", "missed", "false"):
            assert np.array_equal(getattr(a.identification, name), getattr(b.identification, name))


def test_run_frame_no_active_devices(power_controlled):
    cfg = _frame_cfg(model=power_controlled, p_a=0.0)
    fr = run_frame(cfg, 50, np.random.default_rng(4))
    assert fr.active.size == 0
    assert fr.sum_rate == 0.0
    assert fr.identification.identified.size == 0


def test_run_frame_is_deterministic_with_collected_slots(power_controlled, replayed):
    # the same seed reproduces the frame and its slot-by-slot replay, every slot outcome bit for bit
    cfg = _frame_cfg(model=power_controlled)
    a, slots_a = replayed(cfg, 40, 77)
    b, slots_b = replayed(cfg, 40, 77)
    assert a.active.size > 0
    for name in ("active", "rates"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.sum_rate == b.sum_rate
    assert len(slots_a) == len(slots_b) == 40
    for sa, sb in zip(slots_a, slots_b):
        assert np.array_equal(sa.detected, sb.detected)
        assert np.array_equal(sa.device_sinr, sb.device_sinr)


def test_all_patterns_shape():
    pats = all_patterns(10, 0, 25, 6, 42)
    assert pats.shape == (10, 25)
    assert pats.min() >= 0 and pats.max() < 6


def test_slot_outcome_carries_estimates():
    # train_slot draws the channels' statistics, then the pilots', and correlates
    # once; the slot runs the shared detection and SINR routines on that correlation
    betas, assignment = np.array([10.0, 6.0]), np.array([3, 5])
    rng = np.random.default_rng(4)
    G, corr = train_one(betas, assignment, 8, 64, rng)

    replay = np.random.default_rng(4)  # replay the training draws by hand
    G_ref, corr_ref = _statistics_replay(replay, betas, assignment, 8, 64)
    assert np.array_equal(G, G_ref)
    assert np.array_equal(corr, corr_ref)
    assert rng.random() == replay.random()  # both streams stand at the same place

    out = simulate_one(betas, assignment, 8, 64, np.random.default_rng(4))
    assert np.array_equal(out.detected, detect_pilots(pilot_energy(corr), 64))
    assert np.array_equal(out.detected, [3, 5])
    assert np.array_equal(out.pilot_of_device, assignment)
    assert np.array_equal(out.device_sinr, mrc_one(G, betas, assignment, corr, pilot_energy(corr), 8))


def test_run_frame_rates_count_only_detected_slots(replayed):
    # weak spread gains on few antennas: some slots miss a device's pilot, and
    # those slots add nothing to its rate
    cfg = SystemConfig(M=32, K=60, tau_u=40, tau_p=8, p_a=0.15, model=UniformPowerError(0.15, 0.5), seed=3)
    fr, slots = replayed(cfg, 60, 5)
    bits = np.zeros(fr.active.size)
    missed = 0
    for out in slots:
        seen = np.isin(out.pilot_of_device, out.detected)
        bits[seen] += np.log2(1.0 + out.device_sinr[seen])
        missed += int((~seen).sum())
    assert missed > 0 and missed < fr.active.size * 60
    assert np.array_equal(fr.rates, (cfg.tau_u - cfg.tau_p) / cfg.tau_u * bits / 60)


def test_run_frame_rejects_empty_frame(power_controlled):
    with pytest.raises(ValueError, match="n_slots"):
        run_frame(_frame_cfg(model=power_controlled), 0, np.random.default_rng(1))
