"""Large-scale fading models and small-scale Rayleigh channel generation.

All gains are linear powers relative to unit-variance receive noise, so a
nominal gain of 10 corresponds to a 10 dB receive SNR. Three large-scale
distributions are supported:

* ``UniformPowerError``  -- gain = delta_bar*(1+v), v ~ U[-alpha, alpha].
  Residual spread after closed-loop power control.
* ``LogNormalShadowing`` -- gain = delta_bar*10^(v/10), v ~ N(0, sigma_v2).
  Log-normal shadowing with power control applied to the dB-domain mean.
* ``RingPathLoss``       -- gain = delta_bar*(1+v)^-PATHLOSS_EXP with
  v ~ U[-alpha, alpha] and the exponent fixed at 3.76. Devices spread
  uniformly on a ring around a nominal distance from the base station.

Raw moments of the gain exist in closed form for every model, and every
other gain expectation is a fixed Gauss rule in the model's underlying
variable (``beta_nodes``), so the analytic bounds and the optimizers that
consume them are deterministic and free of sampling error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np
import numpy.polynomial  # noqa: F401  numpy loads it lazily; load it at import, not inside a run

LN10_OVER_10 = math.log(10.0) / 10.0

# Path-loss exponent of RingPathLoss: 37.6 dB per decade of distance
PATHLOSS_EXP = 3.76


@dataclass(frozen=True)
class UniformPowerError:
    """Gain delta_bar*(1+v) with v uniform on [-alpha, alpha]."""

    delta_bar: float = 10.0
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta_bar) and self.delta_bar > 0):
            raise ValueError(f"delta_bar must be positive and finite, got {self.delta_bar}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class LogNormalShadowing:
    """Gain delta_bar*10^(v/10) with v Gaussian of variance sigma_v2 (dB^2)."""

    delta_bar: float = 10.0
    sigma_v2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta_bar) and self.delta_bar > 0):
            raise ValueError(f"delta_bar must be positive and finite, got {self.delta_bar}")
        if not (math.isfinite(self.sigma_v2) and self.sigma_v2 >= 0):
            raise ValueError(f"sigma_v2 must be non-negative and finite, got {self.sigma_v2}")


@dataclass(frozen=True)
class RingPathLoss:
    """Gain delta_bar*(1+v)^-PATHLOSS_EXP with v uniform on [-alpha, alpha].

    The distance ratio 1+v to the nominal distance places devices uniformly
    on a ring of relative width alpha; delta_bar is the gain at the nominal
    distance.
    """

    delta_bar: float = 10.0
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta_bar) and self.delta_bar > 0):
            raise ValueError(f"delta_bar must be positive and finite, got {self.delta_bar}")
        # alpha = 1 puts devices at distance 0 where the gain moments diverge
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")


LargeScaleModel = Union[UniformPowerError, LogNormalShadowing, RingPathLoss]


@dataclass(frozen=True)
class BetaMoments:
    """First, second and fourth raw moments of the large-scale gain."""

    mean: float
    mean_sq: float
    mean_4th: float

    def __post_init__(self):
        if self.mean_sq < self.mean**2 * (1 - 1e-12):
            raise ValueError("mean_sq violates Jensen ordering mean_sq >= mean^2")
        if self.mean_4th < self.mean_sq**2 * (1 - 1e-12):
            raise ValueError("mean_4th violates Jensen ordering mean_4th >= mean_sq^2")

    @property
    def spread_factor(self) -> float:
        """mean_4th / (mean^2 * mean_sq); equals 1 under perfect power control."""
        return self.mean_4th / (self.mean**2 * self.mean_sq)


def _uniform_power_moment(n: int, a: float) -> float:
    # E[(1+v)^n], v ~ U[-a, a]; exact polynomials (odd moments of v vanish)
    if n == 1:
        return 1.0
    if n == 2:
        return 1.0 + a**2 / 3.0
    if n == 4:
        return 1.0 + 2.0 * a**2 + a**4 / 5.0
    return ((1 + a) ** (n + 1) - (1 - a) ** (n + 1)) / (2 * a * (n + 1))


def raw_moment(model: LargeScaleModel, n: int) -> float:
    """Closed-form E[gain^n] for a large-scale model."""
    d = model.delta_bar
    if isinstance(model, UniformPowerError):
        if model.alpha == 0.0:
            return d**n
        return d**n * _uniform_power_moment(n, model.alpha)
    if isinstance(model, LogNormalShadowing):
        return d**n * math.exp(n**2 * LN10_OVER_10**2 * model.sigma_v2 / 2.0)
    if isinstance(model, RingPathLoss):
        a, g = model.alpha, PATHLOSS_EXP
        if a == 0.0:
            return d**n
        q = -n * g
        if a < 1e-3:
            # the closed form cancels catastrophically for tiny spread;
            # two Taylor terms leave an O(a^6) relative error
            return d**n * (
                1.0
                + q * (q - 1) / 2.0 * a**2 / 3.0
                + q * (q - 1) * (q - 2) * (q - 3) / 24.0 * a**4 / 5.0
            )
        # n*g = 1 would need the log limit; no integer n meets it at the
        # fixed exponent 3.76
        return d**n * ((1 - a) ** (1 + q) - (1 + a) ** (1 + q)) / (2 * a * (n * g - 1))
    raise TypeError(f"unknown large-scale model {type(model).__name__}")


def analytic_moments(model: LargeScaleModel) -> BetaMoments:
    """First/second/fourth raw moments of the gain, in closed form."""
    return BetaMoments(
        mean=raw_moment(model, 1),
        mean_sq=raw_moment(model, 2),
        mean_4th=raw_moment(model, 4),
    )


def sample_beta(model: LargeScaleModel, rng: np.random.Generator, size):
    """Draw an array of large-scale gains of shape ``size`` from the model."""
    if isinstance(model, UniformPowerError):
        v = rng.uniform(-model.alpha, model.alpha, size)
        return model.delta_bar * (1.0 + v)
    if isinstance(model, LogNormalShadowing):
        v = rng.normal(0.0, math.sqrt(model.sigma_v2), size)
        return model.delta_bar * np.power(10.0, v / 10.0)
    if isinstance(model, RingPathLoss):
        v = rng.uniform(-model.alpha, model.alpha, size)
        return model.delta_bar * np.power(1.0 + v, -PATHLOSS_EXP)
    raise TypeError(f"unknown large-scale model {type(model).__name__}")


def sample_channels(betas, M: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, beta_j I_M) channel columns for each gain in ``betas``.

    Returns an (M, len(betas)) complex matrix.
    """
    if M < 1:
        raise ValueError(f"antenna count must be >= 1, got {M}")
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    shape = (M, betas.size)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return h * np.sqrt(betas / 2.0)


def is_degenerate(model: LargeScaleModel) -> bool:
    """True when the model collapses to the constant gain delta_bar."""
    if isinstance(model, LogNormalShadowing):
        return model.sigma_v2 == 0.0
    return model.alpha == 0.0


# Points of beta_nodes' Gauss rule: Legendre on the bounded-support models,
# Hermite on log-normal shadowing.
QUAD_NODES = 96

# Node x row elements expect_rows fills at once (512 KiB): up to 682 cells of
# 96 nodes, so a grid_opt stage-one grid (25 x 25 cells, 60,000 entries) or a
# 61-point scan is one block.
_BLOCK_ELEMENTS = 1 << 16


def expect_beta(model: LargeScaleModel, f: Callable) -> float:
    """Expectation of f(gain) under the model, as ``w @ f(nodes)`` over :func:`beta_nodes`.

    ``f`` must be vectorized: it is called once on the whole node array.
    The bounded-support models' 96-point Gauss-Legendre rule is accurate to
    ~1e-13 for smooth integrands up to uniform alpha = 1 and ring alpha =
    0.9; near the ring's pole (alpha -> 1) it degrades, e.g. ~1e-5 at alpha
    = 0.99. Log-normal shadowing's 96-point Gauss-Hermite rule agrees with a
    200-point rule to 5e-15 relative on the R3/Ra integrands for sigma_v2 <=
    16 dB^2 (4e-13 with log2(1 + sinr)'s own rounding), 5e-8 at 64 and
    1.5e-5 at 144, and gives the raw moments to 2e-14.
    """
    nodes, w = beta_nodes(model)
    return float(w @ np.asarray(f(nodes), dtype=float))


def expect_rows(model: LargeScaleModel, fill: Callable, n_rows: int) -> np.ndarray:
    """E[f_r(gain)] for each row r = 0..n_rows-1 of a family of integrands.

    ``fill(nodes, rows, out)`` writes the integrands of the slice ``rows``
    at the n nodes of :func:`beta_nodes` into ``out``, a (len(rows), n)
    block of at most _BLOCK_ELEMENTS entries (or one row) of the one buffer
    that expect_rows owns. Each row is reduced on its own as ``w @ row``,
    the reduction :func:`expect_beta` makes: a row's value equals
    expect_beta of its integrand, whatever rows are filled with it.
    """
    nodes, w = beta_nodes(model)
    values = np.empty(n_rows)
    step = min(max(1, _BLOCK_ELEMENTS // nodes.size), n_rows)
    buf = np.empty((step, nodes.size))
    for lo in range(0, n_rows, step):
        block = buf[:n_rows - lo]
        fill(nodes, slice(lo, lo + step), block)
        for j, row in enumerate(block, lo):
            values[j] = w @ row
    return values


@lru_cache(maxsize=32)
def beta_nodes(model: LargeScaleModel) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights such that E[f(gain)] ~= weights @ f(nodes).

    A QUAD_NODES-point Gauss rule in the model's underlying variable v:
    Gauss-Legendre on the bounded-support models (v uniform), Gauss-Hermite
    on log-normal shadowing (v Gaussian); one node of weight 1 when the gain
    is constant. Both arrays are read-only and memoized for the 32 most
    recent models, 1.5 KiB each.
    """
    if is_degenerate(model):
        nodes, w = np.array([model.delta_bar]), np.array([1.0])
    elif isinstance(model, LogNormalShadowing):
        x, w = np.polynomial.hermite.hermgauss(QUAD_NODES)
        nodes = model.delta_bar * 10.0 ** (math.sqrt(2.0 * model.sigma_v2) * x / 10.0)
        w = w / math.sqrt(math.pi)
    else:
        x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
        v = model.alpha * x
        if isinstance(model, RingPathLoss):
            nodes = model.delta_bar * (1.0 + v) ** (-PATHLOSS_EXP)
        else:
            nodes = model.delta_bar * (1.0 + v)
        w = w / 2.0
    nodes.flags.writeable = w.flags.writeable = False
    return nodes, w
