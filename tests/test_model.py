"""Domain-type construction, derived quantities, and validation."""

import math

import pytest

from cavshare import (
    Cat,
    Coherent,
    CouplingProfile,
    InvalidParameter,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
)


def test_parity_signs():
    assert ParityKind.EVEN.sign == 1.0
    assert ParityKind.ODD.sign == -1.0


def test_collective_rate_is_g_root_n():
    params = SystemParams(n_crystallites=3, coupling=2.0)
    assert math.isclose(params.collective_rate, 2.0 * math.sqrt(3.0), rel_tol=1e-15)


def test_alpha_modulus_and_phase():
    params = SystemParams(n_crystallites=2, intensity=2.25, field_phase=0.5)
    assert math.isclose(abs(params.alpha) ** 2, 2.25, rel_tol=1e-15)
    assert math.isclose(math.atan2(params.alpha.imag, params.alpha.real), 0.5,
                        rel_tol=1e-15)


def test_time_conversion_roundtrip():
    params = SystemParams(n_crystallites=5, coupling=0.7)
    for gt in (0.0, 0.3, math.pi, 11.0):
        t = params.time_from_gt(gt)
        assert t == gt / params.collective_rate
        assert math.isclose(t * params.collective_rate, gt,
                            rel_tol=1e-14, abs_tol=1e-15)


@pytest.mark.parametrize("kwargs", [
    dict(n_crystallites=1),
    dict(n_crystallites=0),
    dict(n_crystallites=-3),
    dict(n_crystallites=2.0),
    dict(n_crystallites=True),
    dict(n_crystallites=2, coupling=0.0),
    dict(n_crystallites=2, coupling=-1.0),
    dict(n_crystallites=2, coupling=math.inf),
    dict(n_crystallites=2, decay_rate=-0.1),
    dict(n_crystallites=2, intensity=-1e-9),
    dict(n_crystallites=2, field_phase=math.nan),
    dict(n_crystallites=2, parity="odd"),
])
def test_system_params_rejects_bad_values(kwargs):
    with pytest.raises(InvalidParameter):
        SystemParams(**kwargs)


def test_system_params_has_no_frequency():
    # the package works in the frame rotating at the common mode frequency
    with pytest.raises(TypeError, match="frequency"):
        SystemParams(n_crystallites=2, frequency=1.0)


def test_profile_collective_rate_quadrature():
    profile = CouplingProfile(couplings=(3.0, 4.0))
    assert math.isclose(profile.collective_rate, 5.0, rel_tol=1e-15)
    assert len(profile) == 2


def test_profile_isotropic_and_from_params():
    params = SystemParams(n_crystallites=4, coupling=1.5)
    profile = CouplingProfile.from_params(params)
    assert profile.couplings == (1.5, 1.5, 1.5, 1.5)
    assert math.isclose(profile.collective_rate, params.collective_rate,
                        rel_tol=1e-15)


@pytest.mark.parametrize("couplings", [
    (1.0,),
    (),
    (1.0, 0.0),
    (1.0, -2.0),
    (1.0, math.inf),
])
def test_profile_rejects_bad_couplings(couplings):
    with pytest.raises(InvalidParameter):
        CouplingProfile(couplings=couplings)


def test_pair_index_validation():
    pair = PairIndex(1, 3)
    assert pair.check_bounds(3) is pair
    with pytest.raises(InvalidParameter):
        PairIndex(2, 2)
    with pytest.raises(InvalidParameter):
        PairIndex(0, 1)
    with pytest.raises(InvalidParameter):
        PairIndex(1, -2)
    with pytest.raises(InvalidParameter):
        PairIndex(1.0, 2)
    with pytest.raises(InvalidParameter):
        PairIndex(1, 4).check_bounds(3)


def test_preparation_types_carry_their_fields():
    assert Cat(ParityKind.EVEN).alpha is None
    assert Cat(ParityKind.ODD, 0.5j).alpha == 0.5j
    assert Coherent(1.0 + 0.0j).alpha == 1.0 + 0.0j
    SinglePhoton()  # no fields

