"""Self-check harness: closed forms replayed against the truncated number
basis oracle, with capacity skips and bookkeeping."""

import hashlib
import math
import re
from pathlib import Path

import pytest

from cavshare import (Cat, CouplingProfile, PairIndex, ParityKind, SystemParams,
                      TildeBasis, concurrence, fockspace, isotropic_amplitudes)
from cavshare.verify import (
    PairRecord,
    SuiteResult,
    VerifyCase,
    cat_suite,
    lindblad_suite,
    run_all,
    single_photon_suite,
)

_CASE_PATTERNS = {
    "single_photon": re.compile(
        r"^single_photon/N=\d+/Gt=[0-9.e+-]+/(law|duality)$"
    ),
    "cat": re.compile(
        r"^cat/N=\d+/x=[0-9.e+-]+/(even|odd)/Gt=[0-9.e+-]+$"
    ),
    "lindblad": re.compile(
        r"^lindblad/N=\d+/x=[0-9.e+-]+/gamma=[0-9.e+-]+/(even|odd)/Gt=[0-9.e+-]+$"
    ),
}


def test_single_photon_small_grid_passes():
    result = single_photon_suite(n_times=4)
    assert result.suite == "single_photon"
    passed, failed, skipped = result.counts()
    assert (failed, skipped) == (0, 0)
    assert passed == len(result.cases) == 2 * 4 * 3  # law+duality, times, sizes
    for case in result.cases:
        assert _CASE_PATTERNS["single_photon"].match(case.case_id), case.case_id
        assert case.status == "pass"
        assert case.abs_error <= case.tolerance
        expected_tol = 1e-8 if case.case_id.endswith("law") else 1e-10
        assert case.tolerance == expected_tol


def test_single_photon_records_pair_concurrences():
    result = single_photon_suite(n_times=4)
    assert result.pair_records
    for rec in result.pair_records:
        assert rec.suite == "single_photon"
        assert rec.n_crystallites in (2, 3, 5)
        assert 0.0 <= rec.concurrence <= 1.0
        # monogamy of the symmetric share
        assert rec.concurrence <= 2.0 / rec.n_crystallites + 1e-9


def test_cat_small_grid_passes():
    # even counts keep the half-offset grid away from the Gt = pi node
    result = cat_suite(n_times=4)
    assert result.suite == "cat"
    passed, failed, skipped = result.counts()
    assert (failed, skipped) == (0, 0)
    assert passed == 2 * 2 * 4  # intensities x parities x times
    for case in result.cases:
        assert _CASE_PATTERNS["cat"].match(case.case_id), case.case_id
        assert case.tolerance == 1e-6


def test_cat_suite_reaches_ten_crystallites():
    # fig3's N=10 column at |alpha|^2 = 0.1: a 31 824-state basis whose top
    # sector has 19 448 states, within the one size limit
    result = cat_suite(n=10, intensities=(0.1,), n_times=2)
    assert result.counts() == (4, 0, 0)
    assert {rec.n_crystallites for rec in result.pair_records} == {10}
    for rec in result.pair_records:
        assert rec.concurrence <= 2.0 / 10 + 1e-9  # monogamy at N = 10


def test_lindblad_small_grid_passes():
    result = lindblad_suite(n_times=2, gt_max=0.8)
    assert result.suite == "lindblad"
    passed, failed, skipped = result.counts()
    assert (failed, skipped) == (0, 0)
    assert passed == 2 * 2  # parities x times
    for case in result.cases:
        assert _CASE_PATTERNS["lindblad"].match(case.case_id), case.case_id
        assert case.tolerance == 1e-12


def test_lindblad_suite_builds_each_chain_once(monkeypatch):
    # both cats populate the chains d = 0, 2, ..., 10 of the M = 11 basis;
    # the second parity reuses the first one's generators
    built = []
    build = fockspace._chain_generator

    def counted(*args):
        built.append(args[3])
        return build(*args)

    monkeypatch.setattr(fockspace, "_chain_generator", counted)
    result = lindblad_suite(n_times=1, gt_max=0.1)
    assert result.counts() == (2, 0, 0)
    assert sorted(built) == [0, 2, 4, 6, 8, 10]


# Worst |closed form - oracle| of each default suite, measured at 1.1e-15
# (single photon), 4.2e-12 (cat: the Fock tail, under 1e-12, that the cutoff
# leaves; four more levels bring it to 1.1e-15) and 2.5e-15 (Lindblad). Each
# pin leaves a margin of at least ten, for rounding that differs between
# BLAS builds.
@pytest.mark.parametrize("fixture, pin", [
    ("single_photon_result", 1e-13),
    ("cat_result", 5e-11),
    ("lindblad_result", 1e-13),
])
def test_default_suite_worst_error(request, fixture, pin):
    result = request.getfixturevalue(fixture)
    assert max(case.abs_error for case in result.cases) <= pin


def test_default_case_ids_match_golden(single_photon_result, cat_result,
                                       lindblad_result):
    # ids hold only parameters and .10g grid times, so unlike the oracle
    # column this hash does not depend on the LAPACK build
    digest = hashlib.sha256()
    for result in (single_photon_result, cat_result, lindblad_result):
        for case in result.cases:
            digest.update(f"{case.case_id}\t{case.status}\n".encode())
    stored = Path(__file__).parent / "golden" / "verify_cases.sha256"
    assert digest.hexdigest() == stored.read_text().strip()


def test_interior_grid_avoids_degenerate_nodes():
    # times are offset half a cell so Gt = 0, pi, 2pi never occur
    result = cat_suite(n_times=8)
    gts = {float(c.case_id.rsplit("Gt=", 1)[1]) for c in result.cases}
    for gt in gts:
        assert min(abs(gt - k * math.pi) for k in range(0, 4)) > 1e-3


def test_degenerate_samples_become_skip_rows():
    # an odd count puts the middle sample on Gt = pi, where the cat's tilde
    # basis vanishes; the other samples still run, and the stacked reduction
    # gives each of them the bits of a reduction of its own
    result = cat_suite(n_times=3)
    assert result.counts() == (8, 0, 4)
    for case in result.cases:
        if case.status == "skip":
            assert case.case_id.endswith(f"/Gt={math.pi:.10g}/degenerate")
            assert math.isfinite(case.analytic)
            assert math.isnan(case.oracle) and math.isnan(case.abs_error)
    assert all(abs(rec.gt - math.pi) > 1.0 for rec in result.pair_records)
    oracle = {case.case_id: case.oracle for case in result.cases}
    grid = [(k + 0.5) * 2.0 * math.pi / 3 for k in range(3)]
    for x in (0.25, 1.0):
        basis = fockspace.build_basis(4, fockspace.minimum_truncation(x))
        ham = fockspace.build_hamiltonian(CouplingProfile.isotropic(1.0, 3), basis)
        for parity in (ParityKind.EVEN, ParityKind.ODD):
            params = SystemParams(n_crystallites=3, intensity=x, parity=parity)
            states = fockspace.unitary_trajectory(
                ham, fockspace.prepare_initial(Cat(parity, params.alpha), basis),
                [params.time_from_gt(gt) for gt in grid])
            for gt, psi in zip(grid[::2], states[::2]):
                mu = isotropic_amplitudes(params, gt).v * params.alpha
                alone = concurrence(fockspace.reduce_to_qubit_pair(
                    psi, PairIndex(1, 2), TildeBasis(mu)))
                case_id = f"cat/N=3/x={x:.10g}/{parity.name.lower()}/Gt={gt:.10g}"
                assert oracle[case_id] == alone
    # without loss v'(t) vanishes at Gt = 2 pi, the one Lindblad sample
    assert lindblad_suite(gamma_over_g=0.0, n_times=1).counts() == (0, 0, 2)


def test_capacity_overflow_becomes_skip():
    result = cat_suite(n=12, n_times=2)
    passed, failed, skipped = result.counts()
    assert (passed, failed, skipped) == (0, 0, 1)
    case = result.cases[0]
    assert case.status == "skip"
    assert "capacity" in case.case_id
    assert math.isnan(case.analytic) and math.isnan(case.oracle)
    assert not result.pair_records


def test_run_all_propagates_overrides():
    results = run_all(n_times=2, gt_max=0.8, n_override=12)
    assert [r.suite for r in results] == ["single_photon", "cat", "lindblad"]
    single, cat, lind = results
    # tiny single-excitation basis still fits at N=12
    assert single.counts() == (2 * 2, 0, 0)
    assert all("/N=12/" in c.case_id for c in single.cases)
    # the number-resolved suites overflow and report skips
    assert cat.counts() == (0, 0, 1)
    assert lind.counts() == (0, 0, 1)


def test_status_field_matches_error_and_tolerance():
    for result in (single_photon_suite(n_times=3), cat_suite(n_times=4)):
        for case in result.cases:
            assert case.status == ("pass" if case.abs_error <= case.tolerance
                                   else "fail")
