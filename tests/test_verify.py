"""Self-check harness: closed forms replayed against the truncated number
basis oracle, with capacity skips and bookkeeping."""

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from cavshare import (Cat, CouplingProfile, NumberBasis, PairIndex, ParityKind,
                      SinglePhoton, SystemParams, TildeBasis, TwoQubitDensity,
                      analytic, coherent_concurrence, concurrence, dissipative,
                      fockspace, isotropic_amplitudes, single_photon_concurrence)
from cavshare.verify import (
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
        r"^single_photon/N=\d+/Gt=[0-9.e+-]+/(law|duality|law/pairs)$"
    ),
    "cat": re.compile(
        r"^cat/N=\d+/x=[0-9.e+-]+/(even|odd)/Gt=[0-9.e+-]+(/pairs)?$"
    ),
    "lindblad": re.compile(
        r"^lindblad/N=\d+/x=[0-9.e+-]+/gamma=[0-9.e+-]+/(even|odd)/Gt=[0-9.e+-]+$"
    ),
}


def _pairs_rows(result) -> list[VerifyCase]:
    return [c for c in result.cases if c.case_id.endswith("/pairs")]


def _crystallites(case: VerifyCase) -> int:
    return int(re.search(r"/N=(\d+)/", case.case_id)[1])


def test_single_photon_small_grid_passes():
    result = single_photon_suite(n_times=4)
    assert result.suite == "single_photon"
    passed, failed, skipped = result.counts()
    assert (failed, skipped) == (0, 0)
    # law+duality, times, sizes, and the first sample's /pairs row at N = 3, 5
    assert passed == len(result.cases) == 2 * 4 * 3 + 2
    for case in result.cases:
        assert _CASE_PATTERNS["single_photon"].match(case.case_id), case.case_id
        assert case.status == "pass"
        assert case.abs_error <= case.tolerance
        expected_tol = 1e-10 if case.case_id.endswith("duality") else 1e-8
        assert case.tolerance == expected_tol


def test_single_photon_records_pair_concurrences():
    # the other pairs of N = 3 and 5 at the first sample, each a /pairs row
    # right after its sample's law and duality rows; the farthest pair
    # bounds them all, within the monogamy bound of the symmetric share
    result = single_photon_suite(n_times=4)
    ids = [c.case_id for c in result.cases]
    rows = _pairs_rows(result)
    assert [_crystallites(c) for c in rows] == [3, 5]
    for case in rows:
        main = case.case_id.removesuffix("/pairs")
        assert ids.index(case.case_id) == ids.index(main) + 2
        assert case.status == "pass" and case.tolerance == 1e-8
        assert 0.0 <= case.oracle <= 1.0
        assert case.analytic + case.abs_error <= 2.0 / _crystallites(case) + 1e-9


def test_pairs_row_keeps_the_pair_farthest_from_the_closed_form(monkeypatch):
    # isotropic pairs agree to the last bit, so here the kernel shifts the
    # five other pairs of N = 4 by offsets of either sign: the row must keep
    # the -5e-9 one, the farthest in absolute value, not the largest or the
    # first
    offsets = np.array([0.0, 3e-9, -5e-9, 1e-9, -2e-9])
    shifted = []

    def kernel(rho):
        values = concurrence(rho)
        if len(values) == len(offsets):
            shifted.append(values + offsets)
            return shifted[-1]
        return values

    monkeypatch.setattr("cavshare.verify.concurrence", kernel)
    [row] = _pairs_rows(single_photon_suite(n_values=(4,), n_times=1, gt_max=1.0))
    assert len(shifted) == 1 and row.oracle == shifted[0][2]
    assert row.abs_error == abs(row.analytic - shifted[0][2]) and row.status == "pass"


def test_cat_small_grid_passes():
    # even counts keep the half-offset grid away from the Gt = pi node
    result = cat_suite(n_times=4)
    assert result.suite == "cat"
    passed, failed, skipped = result.counts()
    assert (failed, skipped) == (0, 0)
    assert passed == 2 * 2 * (4 + 1)  # intensities x parities x (times + /pairs)
    for case in result.cases:
        assert _CASE_PATTERNS["cat"].match(case.case_id), case.case_id
        assert case.tolerance == 1e-6


def test_cat_suite_reaches_ten_crystallites():
    # fig3's N=10 column at |alpha|^2 = 0.1: a 31 824-state basis whose top
    # sector has 19 448 states, within the one size limit
    result = cat_suite(n=10, intensities=(0.1,), n_times=2)
    assert result.counts() == (6, 0, 0)
    rows = _pairs_rows(result)
    assert len(rows) == 2 and {_crystallites(c) for c in rows} == {10}
    for case in result.cases:  # monogamy at N = 10, on every pair
        assert case.analytic + case.abs_error <= 2.0 / 10 + 1e-9


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
    # dim^2 exists: the one density built is rho0, one block on the odd
    # cat's 6 populated states, and lindblad_trajectory refuses it before
    # it builds a sector term
    built = []
    mixed = fockspace.MixedState

    def recorded(**kwargs):
        built.append([len(index) for index, _ in kwargs["blocks"]])
        return mixed(**kwargs)

    def refused(*args):
        raise AssertionError("a sector term was built")

    monkeypatch.setattr(fockspace, "_LINDBLAD_CAPACITY", 363)
    monkeypatch.setattr(fockspace, "MixedState", recorded)
    monkeypatch.setattr(fockspace, "_sector_terms", refused)
    result = lindblad_suite(n_times=1, gt_max=0.1)
    assert [c.case_id for c in result.cases] == [
        "lindblad/capacity dimension=364 limit=363"]
    assert result.counts() == (0, 0, 1)
    assert built == [[6]]


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


def test_lindblad_cells_do_not_depend_on_the_blas_thread_count(tmp_path):
    # BLAS reads its thread count once, at import, so each count runs in a
    # fresh interpreter. The mixed reduction takes one small product per
    # block and group; one masked product per whole block (up to 203 rows)
    # would sum in an order that depends on the count, and moves a cell of
    # this five-sample run at two threads
    code = ("from cavshare import verify\n"
            "print(*(c.oracle.hex() for c in verify.lindblad_suite(n_times=5).cases))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    cells = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        cells.append(done.stdout.split())
    assert len(cells[0]) == 10 and cells[0] == cells[1]


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
    # column these hashes do not depend on the LAPACK build. The /pairs rows
    # have their own, so the first still pins every other row, its status
    # and their order
    digests = {"verify_cases": hashlib.sha256(), "verify_pairs": hashlib.sha256()}
    for result in (single_photon_result, cat_result, lindblad_result):
        for case in result.cases:
            name = "verify_pairs" if case.case_id.endswith("/pairs") else "verify_cases"
            digests[name].update(f"{case.case_id}\t{case.status}\n".encode())
    for name, digest in digests.items():
        stored = Path(__file__).parent / "golden" / f"{name}.sha256"
        assert digest.hexdigest() == stored.read_text().strip(), name


def test_interior_grid_avoids_degenerate_nodes():
    # times are offset half a cell so Gt = 0, pi, 2pi never occur
    result = cat_suite(n_times=8)
    gts = {float(c.case_id.split("Gt=")[1].split("/")[0]) for c in result.cases}
    for gt in gts:
        assert min(abs(gt - k * math.pi) for k in range(0, 4)) > 1e-3


def test_degenerate_samples_become_skip_rows():
    # an odd count puts the middle sample on Gt = pi, where the cat's tilde
    # basis vanishes; the other samples still run, and the stacked reduction
    # gives each of them the bits of a reduction of its own
    grid = [(k + 0.5) * 2.0 * math.pi / 3 for k in range(3)]
    result = cat_suite(n_times=3)
    assert result.counts() == (8 + 4, 0, 4)  # each first sample has a /pairs row
    for case in result.cases:
        if case.status == "skip":
            assert case.case_id.endswith(f"/Gt={math.pi:.10g}/degenerate")
            assert math.isfinite(case.analytic)
            assert math.isnan(case.oracle) and math.isnan(case.abs_error)
    assert all(f"/Gt={grid[0]:.10g}/pairs" in c.case_id for c in _pairs_rows(result))
    oracle = {case.case_id: case.oracle for case in result.cases}
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


def _per_pair_reference(n, closed_forms, states, bases):
    """One preparation's oracle value per sample (None where degenerate) and
    the oracle cell of each /pairs row, from one reduction and one kernel
    call per pair: pair (1, 2) on every sample, every other pair on every
    tenth, of which the row keeps the one farthest from the closed form."""
    def alone(pair, picked):
        rho, degenerate = fockspace.reduce_to_qubit_pair(
            [states[k] for k in picked], pair, [bases[k] for k in picked])
        values = iter(concurrence(rho).tolist())
        return [None if d else next(values) for d in degenerate]

    first = alone(PairIndex(1, 2), range(len(states)))
    others = [alone(PairIndex(m, k), range(0, len(states), 10))
              for m in range(1, n + 1) for k in range(m + 1, n + 1) if (m, k) != (1, 2)]
    farthest = [max((c[k // 10] for c in others), key=lambda c: abs(closed_forms[k] - c))
                for k in range(0, len(states), 10) if first[k] is not None]
    return first, farthest


def _split_pairs(cases) -> tuple[list[str], list[str]]:
    """The oracle cells, as hex, of the main rows and of the /pairs rows."""
    rows = ([], [])
    for c in cases:
        rows[c.case_id.endswith("/pairs")].append(c.oracle.hex())
    return rows


def test_cat_suite_reduces_all_pairs_in_two_calls(monkeypatch):
    log = _count_reductions(monkeypatch)
    result = cat_suite(n=5, intensities=(0.25,), n_times=4)
    assert log == [1] * 4  # two calls per parity, one ket build in each
    monkeypatch.undo()
    assert result.counts() == (10, 0, 0)
    grid = [(k + 0.5) * 2.0 * math.pi / 4 for k in range(4)]
    basis = fockspace.build_basis(6, fockspace.minimum_truncation(0.25))
    ham = fockspace.build_hamiltonian(CouplingProfile.isotropic(1.0, 5), basis)
    oracle, pairs = [], []
    for parity in (ParityKind.EVEN, ParityKind.ODD):
        params = SystemParams(n_crystallites=5, intensity=0.25, parity=parity)
        states = fockspace.unitary_trajectory(
            ham, fockspace.prepare_initial(Cat(parity, params.alpha), basis),
            [params.time_from_gt(gt) for gt in grid])
        bases = [TildeBasis(isotropic_amplitudes(params, gt).v * params.alpha)
                 for gt in grid]
        closed = [coherent_concurrence(params, gt) for gt in grid]
        values, farthest = _per_pair_reference(5, closed, states, bases)
        oracle += values
        pairs += farthest
    assert len(pairs) == 2
    assert _split_pairs(result.cases) == ([v.hex() for v in oracle],
                                          [v.hex() for v in pairs])


def test_single_photon_suite_reduces_all_pairs_in_two_calls(monkeypatch):
    log = _count_reductions(monkeypatch)
    result = single_photon_suite(n_values=(5,), n_times=20)
    assert log == [0, 0]  # number-basis kets need no cats
    monkeypatch.undo()
    grid = [(k + 0.5) * 2.0 * math.pi / 20 for k in range(20)]
    params = SystemParams(n_crystallites=5)
    profile = CouplingProfile.from_params(params)
    basis = fockspace.build_basis(6, 1)
    states = fockspace.unitary_trajectory(
        fockspace.build_hamiltonian(profile, basis),
        fockspace.prepare_initial(SinglePhoton(), basis),
        [params.time_from_gt(gt) for gt in grid])
    closed = [single_photon_concurrence(profile, gt, PairIndex(1, 2)) for gt in grid]
    oracle, pairs = _per_pair_reference(5, closed, states, [NumberBasis()] * 20)
    laws = [c for c in result.cases if not c.case_id.endswith("/duality")]
    assert len(pairs) == 2
    assert _split_pairs(laws) == ([v.hex() for v in oracle], [v.hex() for v in pairs])


def test_capacity_overflow_becomes_skip():
    result = cat_suite(n=12, n_times=2)
    passed, failed, skipped = result.counts()
    assert (passed, failed, skipped) == (0, 0, 1)
    case = result.cases[0]
    assert case.status == "skip"
    assert "capacity" in case.case_id
    assert math.isnan(case.analytic) and math.isnan(case.oracle)


def test_run_all_propagates_overrides():
    results = run_all(n_times=2, gt_max=0.8, n_override=12)
    assert [r.suite for r in results] == ["single_photon", "cat", "lindblad"]
    single, cat, lind = results
    # tiny single-excitation basis still fits at N=12, with its /pairs row
    assert single.counts() == (2 * 2 + 1, 0, 0)
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
