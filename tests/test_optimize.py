"""Optimum-intensity solvers: the Lambert W kernel, the stationarity root
solve, and the direct golden-section search that cross-checks it."""

import math

import numpy as np
import pytest

from cavshare import (
    DomainError,
    InvalidParameter,
    NoRoot,
    OptimumReport,
    ParityKind,
    SystemParams,
    coherent_concurrence,
    lambert_w0,
    optimal_intensity,
    threshold_intensity,
)
from cavshare import optimize as optimize_module

_E = math.e


# --- Lambert W ---------------------------------------------------------------

def test_lambert_fixed_points():
    assert lambert_w0(0.0) == 0.0
    assert math.isclose(lambert_w0(_E), 1.0, abs_tol=1e-15)
    assert math.isclose(lambert_w0(-1.0 / _E), -1.0, abs_tol=1e-7)
    assert math.isclose(lambert_w0(1.0), 0.5671432904097838, abs_tol=1e-15)


def test_lambert_residual_bound():
    # |w e^w - z| <= 1e-14 max(1, |z|) across the branch
    zs = np.concatenate([
        -1.0 / _E + np.logspace(-15, 0, 40),
        np.logspace(-12, 8, 60),
        [-0.1, -0.25, -0.35, -1.0 / _E + 1e-16],
    ])
    for z in zs:
        z = float(z)
        w = lambert_w0(z)
        assert abs(w * math.exp(w) - z) <= 1e-14 * max(1.0, abs(z))


def test_lambert_matches_scipy_away_from_branch_point():
    from scipy.special import lambertw
    for z in np.logspace(-6, 6, 30):
        z = float(z)
        assert math.isclose(lambert_w0(z), float(lambertw(z).real), rel_tol=1e-12)


def test_lambert_monotone_on_branch():
    zs = np.linspace(-1.0 / _E + 1e-12, 5.0, 200)
    ws = [lambert_w0(float(z)) for z in zs]
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_lambert_domain_errors():
    for bad in (-1.0 / _E - 1e-9, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            lambert_w0(bad)


# --- stationarity threshold -----------------------------------------------------

def test_threshold_closed_form_cases():
    # N=3 and N=4 have elementary solutions
    r3 = threshold_intensity(3)
    assert abs(r3.intensity - 1.5 * math.log(2.0)) < 1e-12
    r4 = threshold_intensity(4)
    assert abs(r4.intensity - math.log(1.0 + math.sqrt(2.0))) < 1e-12


def test_threshold_reference_values():
    expected = {
        5: 0.8139101875890327,
        6: 0.7760916318,
        7: 0.7518120618,
        8: 0.7348800961,
        9: 0.7223897210,
        10: 0.7127920847,
    }
    for n, x_star in expected.items():
        assert abs(threshold_intensity(n).intensity - x_star) < 1e-9


def test_threshold_report_quality():
    for n in range(3, 11):
        report = threshold_intensity(n)
        assert isinstance(report, OptimumReport)
        assert report.method == "root-solve"
        assert report.residual <= 1e-9
        assert report.iterations > 0
        # the optimum falls with crowd size but stays positive
        assert 0.0 < report.intensity < 1.1


def test_threshold_is_decreasing_in_n():
    values = [threshold_intensity(n).intensity for n in range(3, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_threshold_agrees_with_direct_search():
    for n in (3, 4, 6, 9):
        root = threshold_intensity(n).intensity
        direct = optimal_intensity(n, ParityKind.EVEN).intensity
        assert abs(root - direct) <= 1e-6


def test_threshold_rejects_bad_sizes():
    for bad in (2, 1, 0, -3, 3.0, True):
        with pytest.raises(InvalidParameter):
            threshold_intensity(bad)


def test_threshold_no_root_propagates(monkeypatch):
    monkeypatch.setattr(optimize_module, "_stationarity_rhs", lambda x: x + 2.0)
    with pytest.raises(NoRoot):
        optimize_module.threshold_intensity(5)


# --- direct search ---------------------------------------------------------------

def test_even_peak_concurrence_values():
    report = optimal_intensity(3, ParityKind.EVEN)
    assert abs(report.concurrence - 1.0 / 3.0) < 1e-9
    assert report.method == "golden-section"
    # reported pair is self-consistent with the closed form at the peak time
    params = SystemParams(n_crystallites=3, intensity=report.intensity,
                          parity=ParityKind.EVEN)
    assert math.isclose(coherent_concurrence(params, math.pi / 2.0),
                        report.concurrence, rel_tol=1e-12)


def test_root_solve_peak_is_the_closed_form():
    # the root solve reports its peak through the same cat kernel as the
    # closed form, so the two agree to the last bit
    for n in range(3, 11):
        report = threshold_intensity(n)
        params = SystemParams(n_crystallites=n, intensity=report.intensity,
                              parity=ParityKind.EVEN)
        assert report.concurrence == coherent_concurrence(params, math.pi / 2.0)


def test_pair_plateau_for_odd_pair():
    report = optimal_intensity(2, ParityKind.ODD)
    assert report.method == "plateau"
    assert report.concurrence == 1.0
    assert report.iterations == 0


def test_odd_prefers_vanishing_intensity():
    report = optimal_intensity(3, ParityKind.ODD)
    assert report.intensity < 1e-3
    assert abs(report.concurrence - 2.0 / 3.0) < 1e-3


def test_even_pair_saturates_at_large_intensity():
    report = optimal_intensity(2, ParityKind.EVEN)
    assert report.intensity > 9.0
    assert report.concurrence > 0.999


def test_even_objective_is_unimodal_on_grid():
    for n in (3, 5, 8):
        xs = np.linspace(0.05, 6.0, 240)
        cs = [coherent_concurrence(
            SystemParams(n_crystallites=n, intensity=float(x),
                         parity=ParityKind.EVEN), math.pi / 2.0) for x in xs]
        peak = int(np.argmax(cs))
        assert 0 < peak < len(cs) - 1
        rising, falling = cs[: peak + 1], cs[peak:]
        assert all(a <= b + 1e-15 for a, b in zip(rising, rising[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(falling, falling[1:]))


def test_optimal_intensity_rejects_bad_sizes():
    for bad in (1, 0, -2, 2.0, True):
        with pytest.raises(InvalidParameter):
            optimal_intensity(bad, ParityKind.EVEN)
