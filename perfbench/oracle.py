"""Reference computations the benchmark checks pilothop's outputs against.

Written from the model definitions alone; imports nothing from pilothop.

* ``r1`` -- the main averaged sum-rate bound by a direct double sum over the
  active count K_a and the collider count c, with log-space binomial masses
  and gain draws of its own (numpy's default generator, not the program's
  counter-based column streams).
* ``frame_rates`` -- the same closed form slot by slot: frames of a fixed
  active count with fresh uniform pilot choices in every slot, whose spread
  is the slot-level noise of one simulated frame.
* ``r3`` / ``ra`` -- the analytic bounds by fixed Gauss-Legendre quadrature
  on the bounded-support gain laws and Gauss-Hermite quadrature on
  log-normal shadowing; the gain moments come from the same rule.

Gain models are the mappings of an experiment file's ``model`` block.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_DELTA_BAR = 10.0
DEFAULT_PATHLOSS_EXP = 3.76
# masses below this share of the total are dropped from the double sum
TAIL = 1e-13
QUADRATURE_NODES = 200
# gain draws of R1 with spread gains; frames per frame_rates call
SAMPLES = 4000
FRAMES = 200


def _params(model: dict) -> tuple[str, float, float, float]:
    """(kind, delta_bar, spread, pathloss exponent) of a model mapping."""
    kind = model.get("type", "uniform")
    d = float(model.get("delta_bar", DEFAULT_DELTA_BAR))
    if kind in ("uniform", "pathloss"):
        spread = float(model.get("alpha", 0.0))
    elif kind == "lognormal":
        spread = float(model.get("sigma_v2", 0.0))
    else:
        raise ValueError(f"unknown gain model {kind!r}")
    return kind, d, spread, float(model.get("pathloss_exp", DEFAULT_PATHLOSS_EXP))


def is_exact(model: dict) -> bool:
    """True when every gain equals delta_bar, so R1 carries no sampling error."""
    return _params(model)[2] == 0.0


def gain_of_v(model: dict, v):
    """Gain as a function of the model's underlying random variable v."""
    kind, d, _, g = _params(model)
    v = np.asarray(v, dtype=float)
    if kind == "uniform":
        return d * (1.0 + v)
    if kind == "pathloss":
        return d * (1.0 + v) ** (-g)
    return d * 10.0 ** (v / 10.0)


def draw_gains(model: dict, rng: np.random.Generator, shape) -> np.ndarray:
    kind, d, spread, _ = _params(model)
    if spread == 0.0:
        return np.full(shape, d)
    if kind == "lognormal":
        return gain_of_v(model, rng.normal(0.0, math.sqrt(spread), shape))
    return gain_of_v(model, rng.uniform(-spread, spread, shape))


def quadrature(model: dict) -> tuple[np.ndarray, np.ndarray]:
    """Gain nodes and weights with E[f(gain)] = weights @ f(nodes)."""
    kind, d, spread, _ = _params(model)
    if spread == 0.0:
        return np.array([d]), np.array([1.0])
    if kind == "lognormal":
        x, w = np.polynomial.hermite.hermgauss(QUADRATURE_NODES)
        return gain_of_v(model, math.sqrt(2.0 * spread) * x), w / math.sqrt(math.pi)
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    return gain_of_v(model, spread * x), w / 2.0


def binomial(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Values and masses of Binomial(n, p) that carry all but ~TAIL of the mass."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"bad binomial parameters n={n}, p={p}")
    if p == 0.0 or n == 0:
        return np.array([0]), np.array([1.0])
    if p == 1.0:
        return np.array([n]), np.array([1.0])
    mode = min(n, int((n + 1) * p))
    half = int(12.0 * math.sqrt(n * p * (1.0 - p))) + 40
    ks = np.arange(max(0, mode - half), min(n, mode + half) + 1)
    lognorm = math.lgamma(n + 1.0)
    logs = np.array([
        lognorm - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0) + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in ks
    ])
    w = np.exp(logs)
    # the window spans 12 standard deviations, so what the sum misses is
    # rounding in the log-gamma terms (~1e-10 at n = 1e5), not tail mass
    if abs(w.sum() - 1.0) > 1e-8:
        raise ArithmeticError(f"binomial window of Binomial({n}, {p}) misses mass {1.0 - w.sum():.3g}")
    w /= w.sum()
    keep = w > TAIL * w.max()
    return ks[keep], w[keep]


def scenario_sinr(b0, coll_sum, coll_sq, others, tau_p: int, M: int):
    """Per-scenario SINR of the reference device (paper's closed form).

    ``coll_sum``/``coll_sq`` sum the colliders' gains and squared gains,
    ``others`` sums the gains of the active devices on other pilots. The
    denominator adds pilot contamination, the estimation error of every
    device on the reference pilot, and residual interference plus noise.
    """
    members = b0 + coll_sum
    members_sq = b0 * b0 + coll_sq
    contamination = tau_p * (M - 1) * coll_sq
    # sum over members m of beta_m * (1 + tau_p * (members - beta_m))
    estimation = members + tau_p * (members * members - members_sq)
    residual = (1.0 + others) * (1.0 + tau_p * members)
    return tau_p * (M - 1) * b0 * b0 / (contamination + estimation + residual)


def r1(M: int, K: int, tau_u: int, tau_p: int, p_aK: float, model: dict, *,
       seed: int = 0, per_active: bool = False):
    """Averaged R1 sum-rate bound as (value, standard error).

    With ``per_active`` the conditional sum rate at each active count is
    returned too, as (active counts, their masses, sample-mean rates).
    """
    if not 1 <= tau_p <= tau_u:
        raise ValueError(f"tau_p={tau_p} outside [1, tau_u={tau_u}]")
    prelog = (tau_u - tau_p) / tau_u
    ka, wa = binomial(K, min(p_aK / K, 1.0))
    wa = wa[ka >= 1]
    ka = ka[ka >= 1]
    n = 1 if is_exact(model) else SAMPLES
    g = draw_gains(model, np.random.default_rng(seed), (n, int(ka.max())))
    # cum[:, j] sums columns 1..j (column 0 is the reference device)
    cum = np.concatenate([np.zeros((n, 1)), np.cumsum(g[:, 1:], axis=1)], axis=1)
    cum_sq = np.concatenate([np.zeros((n, 1)), np.cumsum(g[:, 1:] ** 2, axis=1)], axis=1)
    b0 = g[:, :1]
    cond = np.empty((n, ka.size))
    for i, k in enumerate(ka):
        cs, wc = binomial(int(k) - 1, 1.0 / tau_p)
        s = scenario_sinr(b0, cum[:, cs], cum_sq[:, cs], cum[:, [k - 1]] - cum[:, cs], tau_p, M)
        cond[:, i] = prelog * k * (np.log2(1.0 + s) @ wc)
    total = cond @ wa
    value = float(total.mean())
    err = float(total.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if per_active:
        return value, err, (ka, wa, cond.mean(axis=0))
    return value, err


def frame_rates(M: int, K_a: int, tau_u: int, tau_p: int, model: dict, n_slots: int, seed: int) -> np.ndarray:
    """Sum rates of FRAMES frames of ``K_a`` active devices.

    Each frame draws its gains once and then, in each of ``n_slots`` slots,
    a uniform pilot for every device; a device's slot rate is the closed-form
    SINR's log2(1 + SINR). A frame's expected rate is R1 conditional on K_a.
    """
    rng = np.random.default_rng(seed)
    prelog = (tau_u - tau_p) / tau_u
    offsets = (np.arange(n_slots) * tau_p)[:, None]
    rates = np.empty(FRAMES)
    for f in range(FRAMES):
        g = draw_gains(model, rng, K_a)
        pilots = (rng.integers(0, tau_p, (n_slots, K_a)) + offsets).ravel()

        def on_pilot(x):
            return np.bincount(pilots, np.tile(x, n_slots), minlength=n_slots * tau_p)[pilots].reshape(n_slots, K_a)

        members, members_sq = on_pilot(g), on_pilot(g * g)
        s = scenario_sinr(g, members - g, members_sq - g * g, g.sum() - members, tau_p, M)
        rates[f] = prelog * float(np.log2(1.0 + s).sum()) / n_slots
    return rates


def _moments(nodes: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    return float(w @ nodes), float(w @ nodes**2)


def r3(M: int, K: int, tau_u: int, tau_p: int, p_aK: float, model: dict) -> float:
    """Optimization bound R3: collider and active counts averaged out."""
    prelog = (tau_u - tau_p) / tau_u
    p_a = min(p_aK / K, 1.0)
    paK = p_a * K
    nodes, w = quadrature(model)
    m1, m2 = _moments(nodes, w)
    n1 = paK - 1.0
    den = (m2 * (M - 1) * n1 + nodes * (1.0 + m1 * n1) - m1 * m1 * n1
           + (1.0 + n1 * m1) * (1.0 + nodes * tau_p) + n1 * m1
           + m1 * m1 * (p_a * p_a * K * (K - 1) - n1))
    sinr = tau_p * (M - 1) * nodes**2 / den
    return prelog * paK * float(w @ np.log2(1.0 + sinr))


def ra(M: int, K: int, tau_u: int, tau_p: int, p_aK: float, model: dict) -> float:
    """Large-system bound Ra."""
    prelog = (tau_u - tau_p) / tau_u
    paK = min(p_aK / K, 1.0) * K
    nodes, w = quadrature(model)
    m1, m2 = _moments(nodes, w)
    sinr = M * tau_p * nodes**2 / (m2 * M * paK + m1 * m1 * paK * paK + m1 * nodes * paK * tau_p)
    return prelog * paK * float(w @ np.log2(1.0 + sinr))
