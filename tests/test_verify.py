"""Self-check harness: closed forms replayed against the truncated number
basis oracle, with capacity skips and bookkeeping."""

import hashlib
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from cavshare import (Cat, CouplingProfile, NumberBasis, PairIndex, ParityKind,
                      SinglePhoton, SystemParams, TildeBasis, TwoQubitDensity,
                      analytic, concurrence, dissipative, fockspace,
                      isotropic_amplitudes)
from cavshare.verify import (
    PairRecord,
    SuiteResult,
    VerifyCase,
    _interior_grid,
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


def test_lindblad_holds_one_chain_generator_at_a_time(monkeypatch):
    # the odd cat populates the chains d = 0, 2, ..., 10 of the M = 11
    # basis up to sector 11, the even cat up to sector 10. Each trajectory
    # builds each of its chains once, to its own top, and no generator is
    # alive when the next is built or once the suite is done: none is kept
    # on the basis for the other parity
    built, alive = [], []
    build = fockspace._chain_generator

    def recorded(terms, gamma, d, top):
        assert all(ref() is None for ref in alive), "an earlier generator is alive"
        generator = build(terms, gamma, d, top)
        sizes = [t.n for t in terms]
        assert generator.shape[0] == sum(sizes[k] * sizes[k - d] for k in range(d, top + 1))
        built.append((d, top))
        alive.append(weakref.ref(generator))
        return generator

    monkeypatch.setattr(fockspace, "_chain_generator", recorded)
    result = lindblad_suite(n_times=1, gt_max=0.1,
                            parities=(ParityKind.ODD, ParityKind.EVEN))
    assert result.counts() == (2, 0, 0)
    assert built == [(d, top) for top in (11, 10) for d in range(0, 11, 2)]
    assert all(ref() is None for ref in alive)


def test_lindblad_suite_traced_peak_stays_under_ten_mib():
    # tracemalloc's peak over a short default-basis suite. Keeping every
    # chain generator for the second parity, each built through COO entry
    # lists, it reached 16.2 MiB; the six generators alone keep 7.18 MiB.
    # Building one at a time straight into CSR, it measured 6.5 MiB
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = lindblad_suite(n_times=1, gt_max=0.1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert result.counts() == (2, 0, 0)
    assert peak < 10 * 2 ** 20


def test_lindblad_capacity_is_checked_before_any_density(monkeypatch):
    # a basis over the Lindblad limit (the default one, 364 states, against
    # a limit of 363) is the suite's skip row before anything of size
    # dim^2 exists: no MixedState is built
    def refused(*args, **kwargs):
        raise AssertionError("a MixedState was built")

    monkeypatch.setattr(fockspace, "_LINDBLAD_CAPACITY", 363)
    monkeypatch.setattr(fockspace, "MixedState", refused)
    result = lindblad_suite(n_times=1, gt_max=0.1)
    assert [c.case_id for c in result.cases] == [
        "lindblad/capacity dimension=364 limit=363"]
    assert result.counts() == (0, 0, 1) and not result.pair_records


def _assert_one_basis(monkeypatch, module, name, density, run, params, gt_max):
    """Patch module.name to return -mu and check that run's reductions and
    the closed density both read pairs in the very bases it returns."""
    original = getattr(module, name)
    made = []

    def flipped(p, gt):
        made.append(TildeBasis(-original(p, gt).mu))
        return made[-1]

    monkeypatch.setattr(module, name, flipped)
    seen = []
    reduce = fockspace.reduce_to_qubit_pair

    def recording(states, pairs, qubit_bases):
        seen.extend(qubit_bases)
        return reduce(states, pairs, qubit_bases)

    monkeypatch.setattr(fockspace, "reduce_to_qubit_pair", recording)
    assert run().counts() == (4, 0, 0)
    grid = _interior_grid(gt_max, 2)
    negated = [-original(p, gt).mu for p in params for gt in grid]
    assert 0.0 not in negated
    assert [b.mu for b in seen] == negated
    assert len(made) == len(seen) and all(b is m for b, m in zip(seen, made))
    for p in params:
        for gt in grid:
            assert density(p, gt).basis_tag is made[-1]


def test_cat_suite_and_closed_density_read_pairs_in_one_basis(monkeypatch):
    # the oracle's reductions and the closed pair density take their tilde
    # basis from cat_qubit_basis, so a change to it reaches both: here
    # mu -> -mu, which no concurrence can see
    params = [SystemParams(n_crystallites=2, intensity=0.25, parity=parity)
              for parity in (ParityKind.EVEN, ParityKind.ODD)]
    _assert_one_basis(monkeypatch, analytic, "cat_qubit_basis",
                      analytic.coherent_pair_density,
                      lambda: cat_suite(n=2, intensities=(0.25,), n_times=2),
                      params, 2.0 * math.pi)


def test_lindblad_suite_and_closed_density_read_pairs_in_one_basis(monkeypatch):
    # the same for the lossy cat and damped_qubit_basis
    params = [SystemParams(n_crystallites=2, decay_rate=0.13, intensity=0.25,
                           parity=parity)
              for parity in (ParityKind.ODD, ParityKind.EVEN)]
    _assert_one_basis(monkeypatch, dissipative, "damped_qubit_basis",
                      dissipative.damped_pair_density,
                      lambda: lindblad_suite(n_times=2, gt_max=0.2),
                      params, 0.2)


def test_lindblad_chain_norms_are_computed_once_per_chain(monkeypatch):
    # two cats of six chains each: one _shifted_norms per chain, shared by
    # its samples and its drift guard
    calls = []
    shifted_norms = fockspace._shifted_norms

    def counted(a):
        calls.append(a.shape)
        return shifted_norms(a)

    monkeypatch.setattr(fockspace, "_shifted_norms", counted)
    assert lindblad_suite(n_times=5, gt_max=math.pi / 8).counts() == (10, 0, 0)
    assert len(calls) == 12


def test_lindblad_samples_factor_on_their_coupled_blocks(monkeypatch):
    # every sample is validated in full, but on the default basis (364
    # states) its Cholesky factors run per coupled block: an even cat
    # sample's even sectors (161 states) and odd sectors 1-9 (125; sector
    # 11 stays empty), the odd cat's even sectors and odd sectors 1-11
    # (203), and rho0's 6 populated states. Each parity's pair densities
    # are one (2, 4, 4) stack, factored in one call
    shapes = []
    cholesky = np.linalg.cholesky

    def recording(a):
        shapes.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    assert lindblad_suite(n_times=2).counts() == (4, 0, 0)
    factors = sorted(shape[-1] for shape in shapes if shape[-1] > 4)
    assert factors == [6, 6, 125, 125, 161, 161, 161, 161, 203, 203]
    assert [shape for shape in shapes if shape[-1] <= 4] == [(2, 4, 4)] * 2
    shapes.clear()
    TwoQubitDensity(np.stack([np.eye(4, dtype=complex) / 4.0] * 5), NumberBasis())
    concurrence(np.eye(4, dtype=complex) / 4.0)
    assert shapes == [(5, 4, 4), (4, 4)]


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
                rho, _ = fockspace.reduce_to_qubit_pair(
                    [psi], PairIndex(1, 2), [TildeBasis(mu)])
                alone = concurrence(rho)[0]
                case_id = f"cat/N=3/x={x:.10g}/{parity.name.lower()}/Gt={gt:.10g}"
                assert oracle[case_id] == alone
    # without loss v'(t) vanishes at Gt = 2 pi, the one Lindblad sample
    assert lindblad_suite(gamma_over_g=0.0, n_times=1).counts() == (0, 0, 2)


def _count_reductions(monkeypatch) -> list[int]:
    """Patch the pair reduction to log, per call, the _cat_levels calls made
    inside it; those of state preparation are not logged."""
    log: list[int] = []
    inside: list[bool] = []
    reduce, cat_levels = fockspace.reduce_to_qubit_pair, fockspace._cat_levels

    def reducing(*args):
        log.append(0)
        inside.append(True)
        try:
            return reduce(*args)
        finally:
            inside.pop()

    def counted(*args):
        if inside:
            log[-1] += 1
        return cat_levels(*args)

    monkeypatch.setattr(fockspace, "reduce_to_qubit_pair", reducing)
    monkeypatch.setattr(fockspace, "_cat_levels", counted)
    return log


def _per_pair_reference(suite, n, gts, states, bases):
    """One preparation's oracle value per sample (None where degenerate) and
    its pair records, from one reduction and one kernel call per pair: pair
    (1, 2) on every sample, every other pair on every tenth."""
    def alone(pair, picked):
        rho, degenerate = fockspace.reduce_to_qubit_pair(
            [states[k] for k in picked], pair, [bases[k] for k in picked])
        values = iter(concurrence(rho).tolist())
        return [None if d else next(values) for d in degenerate]

    first = alone(PairIndex(1, 2), range(len(states)))
    others = [alone(PairIndex(m, k), range(0, len(states), 10))
              for m in range(1, n + 1) for k in range(m + 1, n + 1) if (m, k) != (1, 2)]
    records = []
    for k, gt in enumerate(gts):
        if first[k] is not None:
            records.append(PairRecord(suite, n, gt, first[k]))
            if k % 10 == 0:
                records.extend(PairRecord(suite, n, gt, c[k // 10]) for c in others)
    return first, records


def _hex_records(records) -> list[tuple]:
    return [(r.suite, r.n_crystallites, r.gt.hex(), r.concurrence.hex())
            for r in records]


def test_cat_suite_reduces_all_pairs_in_two_calls(monkeypatch):
    log = _count_reductions(monkeypatch)
    result = cat_suite(n=5, intensities=(0.25,), n_times=4)
    assert log == [1] * 4  # two calls per parity, one ket build in each
    monkeypatch.undo()
    assert result.counts() == (8, 0, 0)
    grid = [(k + 0.5) * 2.0 * math.pi / 4 for k in range(4)]
    basis = fockspace.build_basis(6, fockspace.minimum_truncation(0.25))
    ham = fockspace.build_hamiltonian(CouplingProfile.isotropic(1.0, 5), basis)
    oracle, records = [], []
    for parity in (ParityKind.EVEN, ParityKind.ODD):
        params = SystemParams(n_crystallites=5, intensity=0.25, parity=parity)
        states = fockspace.unitary_trajectory(
            ham, fockspace.prepare_initial(Cat(parity, params.alpha), basis),
            [params.time_from_gt(gt) for gt in grid])
        bases = [TildeBasis(isotropic_amplitudes(params, gt).v * params.alpha)
                 for gt in grid]
        values, recs = _per_pair_reference("cat", 5, grid, states, bases)
        oracle += values
        records += recs
    assert [c.oracle.hex() for c in result.cases] == [v.hex() for v in oracle]
    assert len(records) == 2 * (4 + 9)
    assert _hex_records(result.pair_records) == _hex_records(records)


def test_single_photon_suite_reduces_all_pairs_in_two_calls(monkeypatch):
    log = _count_reductions(monkeypatch)
    result = single_photon_suite(n_values=(5,), n_times=20)
    assert log == [0, 0]  # number-basis kets need no cats
    monkeypatch.undo()
    grid = [(k + 0.5) * 2.0 * math.pi / 20 for k in range(20)]
    params = SystemParams(n_crystallites=5)
    basis = fockspace.build_basis(6, 1)
    states = fockspace.unitary_trajectory(
        fockspace.build_hamiltonian(CouplingProfile.from_params(params), basis),
        fockspace.prepare_initial(SinglePhoton(), basis),
        [params.time_from_gt(gt) for gt in grid])
    oracle, records = _per_pair_reference("single_photon", 5, grid, states,
                                          [NumberBasis()] * 20)
    laws = [c.oracle.hex() for c in result.cases if c.case_id.endswith("/law")]
    assert laws == [v.hex() for v in oracle]
    assert len(records) == 20 + 2 * 9
    assert _hex_records(result.pair_records) == _hex_records(records)


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


def test_run_all_maps_each_set_override_and_keeps_zeros(monkeypatch):
    seen = {}
    for name in ("single_photon_suite", "cat_suite", "lindblad_suite"):
        monkeypatch.setattr(f"cavshare.verify.{name}",
                            lambda _name=name, **kw: seen.setdefault(_name, kw))
    run_all(intensity_override=0.0, gamma_override=0.0)
    assert seen == {"single_photon_suite": {}, "cat_suite": {"intensities": (0.0,)},
                    "lindblad_suite": {"intensity": 0.0, "gamma_over_g": 0.0}}
    seen.clear()
    run_all(n_times=3, gt_max=1.0, n_override=4)
    common = {"n_times": 3, "gt_max": 1.0}
    assert seen == {"single_photon_suite": {**common, "n_values": (4,)},
                    "cat_suite": {**common, "n": 4},
                    "lindblad_suite": {**common, "n": 4}}


def test_status_field_matches_error_and_tolerance():
    for result in (single_photon_suite(n_times=3), cat_suite(n_times=4)):
        for case in result.cases:
            assert case.status == ("pass" if case.abs_error <= case.tolerance
                                   else "fail")
