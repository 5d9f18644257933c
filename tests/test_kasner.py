"""Closed-form Kasner reference family."""

import numpy as np
import pytest

import oracles as orc
from cmclab import AXIAL, FLAT, GENERIC, InvalidKasner, KasnerParams
from cmclab import kasner
from cmclab.checks import random_admissible_exponents


def test_params_validate_kasner_relations():
    KasnerParams(2 / 3, 2 / 3, -1 / 3)
    with pytest.raises(InvalidKasner):
        KasnerParams(0.5, 0.5, 0.5)  # sum of squares off
    with pytest.raises(InvalidKasner):
        KasnerParams(0.9, 0.1, 0.1)  # sum off
    with pytest.raises(InvalidKasner):
        KasnerParams(float("nan"), 0.0, 0.0)  # fails every comparison


def test_random_circle_parametrization_is_admissible(rng):
    for _ in range(50):
        p = random_admissible_exponents(rng)
        s1 = sum(p.exponents)
        s2 = sum(x * x for x in p.exponents)
        assert abs(s1 - 1.0) < 1e-12
        assert abs(s2 - 1.0) < 1e-12


def test_named_triples():
    assert FLAT.exponents == (1.0, 0.0, 0.0)
    assert FLAT.is_flat
    assert not AXIAL.is_flat
    assert AXIAL.exponents == pytest.approx((2 / 3, 2 / 3, -1 / 3))
    assert GENERIC.exponents == pytest.approx((-2 / 7, 3 / 7, 6 / 7))


def test_energy_coefficient_closed_forms():
    # c_E = sum p^2 (1-p)^2, zero exactly for the flat triple
    assert FLAT.energy_coefficient == 0.0
    assert AXIAL.energy_coefficient == pytest.approx(8 / 27, rel=1e-15)
    assert GENERIC.energy_coefficient == pytest.approx(504 / 2401, rel=1e-15)


def test_energy_coefficient_matches_direct_sum(rng):
    for _ in range(20):
        p = random_admissible_exponents(rng)
        direct = sum(x * x * (1 - x) ** 2 for x in p.exponents)
        assert p.energy_coefficient == pytest.approx(direct, rel=1e-14)


def test_tau_t_inverse_pair():
    for t in (-3.0, -1.0, -0.25):
        tau = kasner.tau_of_t(t)
        assert tau == pytest.approx(-1.0 / t, rel=1e-15)
        assert kasner.t_of_tau(tau) == pytest.approx(t, rel=1e-15)
    with pytest.raises(ValueError):
        kasner.tau_of_t(0.0)
    with pytest.raises(ValueError):
        kasner.tau_of_t(1.0)


def test_mean_curvature_equals_time(rng):
    # tr K = sum K_ii / g_ii = -1/tau = t
    for _ in range(10):
        p = random_admissible_exponents(rng)
        t = float(rng.uniform(-3.0, -0.2))
        tau = kasner.tau_of_t(t)
        gd = kasner.metric_diagonal(p, tau)
        kd = kasner.second_form_diagonal(p, tau)
        tr = sum(kd[i] / gd[i] for i in range(3))
        assert tr == pytest.approx(t, rel=1e-12)


def test_metric_determinant_is_tau_squared(rng):
    p = random_admissible_exponents(rng)
    tau = 1.7
    gd = kasner.metric_diagonal(p, tau)
    assert gd[0] * gd[1] * gd[2] == pytest.approx(tau**2, rel=1e-13)


def test_lapse_is_tau_squared():
    assert kasner.lapse(2.0) == 4.0
    # the lapse equation reduces to |K|^2 N = 1 with |K|^2 = 1/tau^2
    for tau in (0.5, 1.0, 3.0):
        assert kasner.lapse(tau) * (1.0 / tau**2) == pytest.approx(1.0)


def test_electric_diagonal_matches_symbolic_curvature():
    # values pinned against R_{i tau i tau} of the 4-metric (see
    # test_geometry.test_kasner_curvature_components_from_four_metric)
    tau = 1.3
    for p in (AXIAL, GENERIC, FLAT):
        want = [pi * (1 - pi) * tau ** (2 * pi - 2) for pi in p.exponents]
        got = kasner.electric_diagonal(p, tau)
        assert np.allclose(got, want, rtol=1e-14)


def test_electric_density_is_brute_norm_of_diagonal(rng):
    for _ in range(10):
        p = random_admissible_exponents(rng)
        tau = float(rng.uniform(0.3, 3.0))
        gd = np.diag(kasner.metric_diagonal(p, tau)).reshape(1, 3, 3)
        ed = np.diag(kasner.electric_diagonal(p, tau)).reshape(1, 3, 3)
        inv = orc.brute_inverse(gd)
        want = orc.brute_inner(ed, ed, inv)[0]
        assert kasner.electric_density(p, tau) == pytest.approx(want, rel=1e-12)


def test_br_energy_decay_law(rng):
    # E_BR = c_E V |t|^3
    for _ in range(10):
        p = random_admissible_exponents(rng)
        t = float(rng.uniform(-4.0, -0.3))
        v = float(rng.uniform(0.5, 2.0))
        tau = kasner.tau_of_t(t)
        dens = kasner.electric_density(p, tau)
        vol = v * tau  # sqrt(det g) = tau
        assert kasner.br_energy(p, t, v) == pytest.approx(dens * vol, rel=1e-12)
        assert kasner.br_energy(p, t, v) == pytest.approx(
            p.energy_coefficient * v * abs(t) ** kasner.DECAY_EXPONENT, rel=1e-12)


def test_br_energy_rate_is_time_derivative():
    p, v = AXIAL, 1.0
    t, dt = -0.9, 1e-6
    numeric = (kasner.br_energy(p, t + dt, v)
               - kasner.br_energy(p, t - dt, v)) / (2 * dt)
    assert kasner.br_energy_rate(p, t, v) == pytest.approx(numeric, rel=1e-8)
    assert kasner.br_energy_rate(p, t, v) < 0.0  # decays toward t -> 0^-


def test_spacetime_energy_is_lapse_weighted_quadrature():
    p, v = GENERIC, 1.0
    t0, t1 = -2.0, -0.5
    ts = np.linspace(t0, t1, 20001)
    integrand = [kasner.lapse(kasner.tau_of_t(t)) * kasner.br_energy(p, t, v)
                 for t in ts]
    numeric = np.trapezoid(integrand, ts)
    assert kasner.spacetime_br_energy(p, t0, t1, v) == pytest.approx(
        numeric, rel=1e-8)
    # orientation does not matter
    assert kasner.spacetime_br_energy(p, t1, t0, v) == pytest.approx(
        kasner.spacetime_br_energy(p, t0, t1, v), rel=1e-15)


def test_curvature_sup_square_is_density():
    p, t = AXIAL, -1.5
    tau = kasner.tau_of_t(t)
    assert kasner.curvature_sup(p, t) ** 2 == pytest.approx(
        kasner.electric_density(p, tau), rel=1e-12)
