"""Acceptance gate: the nine headline claims, one test and one printed
verdict line each. Run with -s to see the lines."""

import filecmp
import hashlib
import math
import re
from pathlib import Path

import numpy as np

from cavshare import (
    Cat,
    CouplingProfile,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
    TildeBasis,
    cli,
    coherent_concurrence,
    concurrence,
    isotropic_amplitudes,
    optimal_intensity,
    threshold_intensity,
)
from cavshare.dissipative import (
    damped_concurrence,
    damped_concurrence_weak_coupling,
)
from cavshare.fockspace import (
    build_basis,
    build_hamiltonian,
    evolve_unitary,
    minimum_truncation,
    prepare_initial,
    reduce_to_qubit_pair,
    w_state_fidelity,
)

_GOLDEN_DIR = Path(__file__).parent / "golden"
_HALF_PI = math.pi / 2.0


def _verdict(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_two_over_n_law(single_photon_result):
    law = [c for c in single_photon_result.cases if c.case_id.endswith("/law")]
    dual = [c for c in single_photon_result.cases
            if c.case_id.endswith("/duality")]
    ok = (
        len(law) == len(dual) == 300
        and all(c.status == "pass" and c.tolerance == 1e-8 for c in law)
        and all(c.status == "pass" and c.tolerance == 1e-10 for c in dual)
    )
    detail = (f"N in {{2,3,5}} x 100 times; max law err "
              f"{max(c.abs_error for c in law):.3g} <= 1e-8, max duality err "
              f"{max(c.abs_error for c in dual):.3g} <= 1e-10")
    _verdict(1, ok, detail)


def test_criterion_2_w_state_emergence():
    worst_iso = 1.0
    for n in (2, 3, 5):
        basis = build_basis(n + 1, 1)
        profile = CouplingProfile.isotropic(1.0, n)
        ham = build_hamiltonian(profile, basis)
        psi0 = prepare_initial(SinglePhoton(), basis)
        psi = evolve_unitary(ham, psi0, _HALF_PI / profile.collective_rate)
        worst_iso = min(worst_iso, w_state_fidelity(psi))
    profile = CouplingProfile(couplings=(3.0, 4.0))
    basis = build_basis(3, 1)
    ham = build_hamiltonian(profile, basis)
    psi0 = prepare_initial(SinglePhoton(), basis)
    best_aniso = max(
        w_state_fidelity(
            evolve_unitary(ham, psi0, float(gt) / profile.collective_rate)
        )
        for gt in np.linspace(0.0, 2.0 * math.pi, 201)
    )
    ok = worst_iso >= 1.0 - 1e-10 and best_aniso < 0.999
    detail = (f"isotropic fidelity at Gt=pi/2 >= {worst_iso:.12f}; "
              f"anisotropic (3,4) max over a period {best_aniso:.6f} < 0.999")
    _verdict(2, ok, detail)


def test_criterion_3_cat_concurrence_oracle(cat_result):
    passed, failed, skipped = cat_result.counts()
    worst = max(c.abs_error for c in cat_result.cases)
    n_pairs = sum(c.case_id.endswith("/pairs") for c in cat_result.cases)
    ok = (failed == 0 and skipped == 0 and passed == 200 + n_pairs and n_pairs == 20
          and all(c.tolerance == 1e-6 for c in cat_result.cases)
          and worst <= 1e-6)
    detail = (f"N=3, both parities, x in {{0.25,1}}, 50 times and the other "
              f"pairs of every tenth: max |closed - oracle| = {worst:.3g} <= 1e-6")
    _verdict(3, ok, detail)


def test_criterion_4_optimal_intensities():
    r3 = threshold_intensity(3).intensity
    r4 = threshold_intensity(4).intensity
    r5 = threshold_intensity(5).intensity
    err3 = abs(r3 - 1.5 * math.log(2.0))
    err4 = abs(r4 - math.log(1.0 + math.sqrt(2.0)))
    err5 = abs(r5 - 0.81)
    cross = max(
        abs(threshold_intensity(n).intensity
            - optimal_intensity(n, ParityKind.EVEN).intensity)
        for n in range(3, 11)
    )
    params = SystemParams(n_crystallites=3, intensity=r3, parity=ParityKind.EVEN)
    peak_closed = coherent_concurrence(params, _HALF_PI)
    closed_err = abs(peak_closed - 1.0 / 3.0)

    # oracle confirmation of the N=3 Even peak value at the optimum
    basis = build_basis(4, minimum_truncation(r3))
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    psi0 = prepare_initial(Cat(ParityKind.EVEN, alpha=params.alpha), basis)
    psi = evolve_unitary(ham, psi0, params.time_from_gt(_HALF_PI))
    mu = isotropic_amplitudes(params, _HALF_PI).v * params.alpha
    rho, _ = reduce_to_qubit_pair([psi], PairIndex(1, 2), [TildeBasis(mu=mu)])
    oracle_err = abs(concurrence(rho)[0] - 1.0 / 3.0)

    ok = (err3 <= 1e-6 and err4 <= 1e-6 and err5 <= 0.01 and cross <= 1e-6
          and closed_err <= 1e-9 and oracle_err <= 1e-6)
    detail = (f"x*(3) err {err3:.2g}, x*(4) err {err4:.2g}, "
              f"x*(5)={r5:.4f} vs 0.81; root-vs-search <= {cross:.2g}; "
              f"peak C(3,Even) err closed {closed_err:.2g}, "
              f"oracle {oracle_err:.2g}")
    _verdict(4, ok, detail)


def test_criterion_5_pair_limits():
    odd_errs = []
    for x in (0.1, 1.0, 3.0, 5.0):
        p = SystemParams(n_crystallites=2, intensity=x, parity=ParityKind.ODD)
        odd_errs.append(abs(coherent_concurrence(p, _HALF_PI) - 1.0))
    even_errs = []
    for x in (0.1, 1.0, 3.0, 5.0):
        p = SystemParams(n_crystallites=2, intensity=x, parity=ParityKind.EVEN)
        even_errs.append(abs(coherent_concurrence(p, _HALF_PI) - math.tanh(x)))
    at3 = coherent_concurrence(
        SystemParams(n_crystallites=2, intensity=3.0, parity=ParityKind.EVEN),
        _HALF_PI,
    )
    ok = (max(odd_errs) <= 1e-12 and max(even_errs) <= 1e-12 and at3 >= 0.995)
    detail = (f"Odd C=1 err {max(odd_errs):.2g}; Even tanh err "
              f"{max(even_errs):.2g}; Even C(x=3)={at3:.6f} >= 0.995")
    _verdict(5, ok, detail)


def test_criterion_6_small_intensity_limit():
    worst_rel = 0.0
    worst_even = 0.0
    for n in range(2, 11):
        odd = coherent_concurrence(
            SystemParams(n_crystallites=n, intensity=0.01,
                         parity=ParityKind.ODD), _HALF_PI)
        even = coherent_concurrence(
            SystemParams(n_crystallites=n, intensity=0.01,
                         parity=ParityKind.EVEN), _HALF_PI)
        worst_rel = max(worst_rel, abs(odd - 2.0 / n) / (2.0 / n))
        worst_even = max(worst_even, even)
    ok = worst_rel <= 0.01 and worst_even < 0.02
    detail = (f"x=0.01, N 2..10: Odd within {100 * worst_rel:.3f}% of 2/N; "
              f"max Even {worst_even:.4f} < 0.02")
    _verdict(6, ok, detail)


def test_criterion_7_dissipative_formulas(lindblad_result):
    # (a) closed damped form collapses to the ideal one at gamma = 0
    gamma0_gap = 0.0
    for n in (2, 3):
        for x in (0.25, 1.0):
            for parity in (ParityKind.ODD, ParityKind.EVEN):
                p = SystemParams(n_crystallites=n, intensity=x, parity=parity)
                for gt in np.linspace(0.05, 2.0 * math.pi, 100):
                    gamma0_gap = max(
                        gamma0_gap,
                        abs(damped_concurrence(p, float(gt))
                            - coherent_concurrence(p, float(gt))),
                    )
    # (b) master-equation oracle against the damped closed form
    passed, failed, skipped = lindblad_result.counts()
    oracle_worst = max(c.abs_error for c in lindblad_result.cases)
    # (c) the weak-coupling form converges to the exact one as loss shrinks
    gts = np.linspace(0.0, 4.0 * math.pi, 400)
    gaps = []
    for ratio in (0.5, 0.25, 0.125):
        p = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=ratio,
                         parity=ParityKind.ODD)
        gaps.append(max(abs(damped_concurrence_weak_coupling(p, float(gt))
                            - damped_concurrence(p, float(gt)))
                        for gt in gts))
    ok = (gamma0_gap <= 1e-12 and failed == 0 and skipped == 0
          and oracle_worst <= 1e-2 and gaps[0] > gaps[1] > gaps[2])
    detail = (f"gamma=0 gap {gamma0_gap:.2g} <= 1e-12; oracle err "
              f"{oracle_worst:.3g} <= 1e-2; weak-coupling sup gaps "
              f"{gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}")
    _verdict(7, ok, detail)


def test_criterion_8_monogamy(single_photon_result, cat_result,
                              lindblad_result):
    # a main row's oracle is pair (1, 2); a /pairs row's oracle is the other
    # pair farthest from the closed form, so analytic + abs_error bounds
    # every other pair of its sample
    bounds = []
    for result in (single_photon_result, cat_result, lindblad_result):
        for c in result.cases:
            if c.status == "skip" or c.case_id.endswith("/duality"):
                continue
            n = int(re.search(r"/N=(\d+)/", c.case_id)[1])
            top = (c.analytic + c.abs_error if c.case_id.endswith("/pairs")
                   else c.oracle)
            bounds.append(2.0 / n + 1e-9 - top)
    n_pairs = sum(c.case_id.endswith("/pairs")
                  for r in (single_photon_result, cat_result) for c in r.cases)
    margin = min(bounds)
    ok = n_pairs == 40 and margin >= 0.0
    detail = (f"{len(bounds)} oracle rows, {n_pairs} of them every other pair, "
              f"all <= 2/N + 1e-9 (tightest margin {margin:.3g})")
    _verdict(8, ok, detail)


def test_criterion_9_figure_regression(tmp_path, monkeypatch):
    # every golden is committed: a missing one fails, nothing is recorded here
    figures = ("fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4")
    first = tmp_path / "a"
    second = tmp_path / "b"
    for directory in (first, second):
        directory.mkdir()
        monkeypatch.chdir(directory)
        for figure in figures:
            assert cli.entrypoint(["--figure", figure]) == 0
    missing, differ = [], []
    for figure in figures:
        name = f"{figure}.csv"
        assert filecmp.cmp(first / name, second / name, shallow=False)
        digest = hashlib.sha256((first / name).read_bytes()).hexdigest()
        stored = _GOLDEN_DIR / f"{figure}.sha256"
        if not stored.exists():
            missing.append(figure)
        elif stored.read_text().strip() != digest:
            differ.append(figure)
    notes = [f"golden hash {what} for {', '.join(names)}"
             for what, names in (("missing", missing), ("differs", differ)) if names]
    detail = (f"{len(figures)} figures byte-identical across runs, "
              f"{'; '.join(notes) or 'all matching golden hashes'}")
    ok = not notes
    _verdict(9, ok, detail)
