"""Closed-form Kasner family: the exact-solution oracle for everything else.

The vacuum metric  -d tau^2 + sum_i tau^{2 p_i} dx_i^2  on the 3-torus,
with exponents satisfying

    p1 + p2 + p3 = 1  and  p1^2 + p2^2 + p3^2 = 1,

has spatially homogeneous slice data

    g_ii = tau^{2 p_i},   K_ii = -p_i tau^{2 p_i - 1},   H = -1/tau,

so the mean-curvature time is t = H = -1/tau < 0 and t -> 0- is the
expanding direction.  The lapse of this time function is N = tau^2
(spatially constant, saturating the lower maximum-principle bound).

The electric Weyl part is diagonal with

    E_ii = p_i (1 - p_i) tau^{2 p_i - 2},

the magnetic part vanishes, and the slice energy integral is

    E_BR(t) = c_E * V * |t|^3,   c_E = sum_i p_i^2 (1 - p_i)^2,

with V the coordinate volume.  Everything in this module is closed-form
arithmetic on the exponents; none of it touches the finite-difference
pipeline, so these values can serve as independent expected results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidKasner

__all__ = [
    "KasnerParams",
    "FLAT",
    "AXIAL",
    "GENERIC",
    "tau_of_t",
    "t_of_tau",
    "metric_diagonal",
    "second_form_diagonal",
    "lapse",
    "electric_diagonal",
    "electric_density",
    "br_energy",
    "br_energy_rate",
    "spacetime_br_energy",
    "curvature_sup",
    "DECAY_EXPONENT",
]

KASNER_TOL = 1e-12

# E_BR(t) = c_E * V * |t|^DECAY_EXPONENT for every admissible triple.
DECAY_EXPONENT = 3.0


@dataclass(frozen=True)
class KasnerParams:
    """Exponent triple with both Kasner sum conditions enforced."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        s1 = self.p1 + self.p2 + self.p3
        s2 = self.p1**2 + self.p2**2 + self.p3**2
        # written so that a NaN exponent fails it too
        if not (abs(s1 - 1.0) <= KASNER_TOL and abs(s2 - 1.0) <= KASNER_TOL):
            raise InvalidKasner(
                f"exponents {self.exponents} give sum {s1!r}, sum of squares {s2!r}"
            )

    @property
    def exponents(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    @property
    def energy_coefficient(self) -> float:
        """c_E = sum_i p_i^2 (1 - p_i)^2, the |t|^3 decay-law prefactor."""
        return float(sum(p * p * (1.0 - p) ** 2 for p in self.exponents))

    @property
    def is_flat(self) -> bool:
        return self.energy_coefficient < 1e-30


FLAT = KasnerParams(1.0, 0.0, 0.0)
AXIAL = KasnerParams(2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0)
GENERIC = KasnerParams(-2.0 / 7.0, 3.0 / 7.0, 6.0 / 7.0)


def tau_of_t(t: float) -> float:
    """Proper time of the slice with mean curvature t < 0."""
    if t >= 0.0:
        raise ValueError(f"CMC time must be negative, got {t!r}")
    return -1.0 / t


def t_of_tau(tau: float) -> float:
    if tau <= 0.0:
        raise ValueError(f"proper time must be positive, got {tau!r}")
    return -1.0 / tau


def metric_diagonal(p: KasnerParams, tau: float) -> np.ndarray:
    """Diagonal slice metric components (tau^{2 p_i})."""
    return np.array([tau ** (2.0 * pi) for pi in p.exponents])


def second_form_diagonal(p: KasnerParams, tau: float) -> np.ndarray:
    """Diagonal second fundamental form components (-p_i tau^{2 p_i - 1})."""
    return np.array([-pi * tau ** (2.0 * pi - 1.0) for pi in p.exponents])


def lapse(tau: float) -> float:
    """CMC lapse N = tau^2 (solves -Delta N + |K|^2 N = 1 with |K|^2 = 1/tau^2)."""
    return tau * tau


def electric_diagonal(p: KasnerParams, tau: float) -> np.ndarray:
    """Diagonal electric Weyl components (p_i (1 - p_i) tau^{2 p_i - 2})."""
    return np.array([pi * (1.0 - pi) * tau ** (2.0 * pi - 2.0) for pi in p.exponents])


def electric_density(p: KasnerParams, tau: float) -> float:
    """|E|^2 + |B|^2 pointwise; B = 0 and |E|^2 = c_E / tau^4."""
    return p.energy_coefficient / tau**4


def br_energy(p: KasnerParams, t: float, volume: float) -> float:
    """Slice energy integral c_E * V * |t|^3 at CMC time t."""
    return p.energy_coefficient * volume * abs(t) ** 3


def br_energy_rate(p: KasnerParams, t: float, volume: float) -> float:
    """d/dt of the slice energy: -3 c_E V t^2 (decaying toward t -> 0-)."""
    tau_of_t(t)  # validates sign
    return -3.0 * p.energy_coefficient * volume * t * t


def spacetime_br_energy(p: KasnerParams, t0: float, t1: float, volume: float) -> float:
    """Lapse-weighted time integral of the energy density over [t0, t1].

    The integrand N(t) E_BR(t) = c_E V |t| integrates to
    c_E V (t0^2 - t1^2) / 2 for t0 <= t1 < 0.
    """
    tau_of_t(t0), tau_of_t(t1)
    lo, hi = sorted((t0, t1))
    return 0.5 * p.energy_coefficient * volume * (lo * lo - hi * hi)


def curvature_sup(p: KasnerParams, t: float) -> float:
    """sup of sqrt(|E|^2 + |B|^2): sqrt(c_E) / tau^2 (homogeneous)."""
    tau = tau_of_t(t)
    return float(np.sqrt(p.energy_coefficient)) / tau**2
