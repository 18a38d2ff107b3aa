"""Analytic-versus-oracle comparison suites.

Each suite evolves states on the truncated Fock space, reduces to qubit
pairs, applies the concurrence kernel, and compares against the closed
forms. The CLI emits these rows as CSV; the acceptance tests assert on
them directly. Samples sit at the centres of n_times equal cells. An odd
count can put one on an instant where the tilde basis vanishes (Gt = pi
for the lossless cat, v'(t) = 0 for the lossy one); that sample becomes a
skip row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic, dissipative, fockspace
from .entanglement import concurrence
from .errors import CapacityExceeded, InvalidParameter
from .model import (
    Cat,
    CouplingProfile,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
)

_SP_TOL = 1e-8
_SP_DUALITY_TOL = 1e-10
_CAT_TOL = 1e-6
# The closed form is exact for this linear system and the propagation is
# exact to rounding, so the rows measure rounding alone. Measured worst:
# 2.5e-15 on the default suite and 8.0e-15 over thirteen --alpha2,
# --gamma_over_g, --points and --t_stop overrides at N=2; the tolerance
# leaves a margin of over 100.
_LINDBLAD_TOL = 1e-12


@dataclass(frozen=True)
class VerifyCase:
    case_id: str
    analytic: float
    oracle: float
    abs_error: float
    tolerance: float
    status: str  # pass, fail, or skip


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    cases: list[VerifyCase]

    def counts(self) -> tuple[int, int, int]:
        n_pass = sum(1 for c in self.cases if c.status == "pass")
        n_fail = sum(1 for c in self.cases if c.status == "fail")
        n_skip = sum(1 for c in self.cases if c.status == "skip")
        return n_pass, n_fail, n_skip


def _case(case_id: str, reference: float, oracle: float, tol: float) -> VerifyCase:
    err = abs(reference - oracle)
    return VerifyCase(
        case_id=case_id,
        analytic=reference,
        oracle=oracle,
        abs_error=err,
        tolerance=tol,
        status="pass" if err <= tol else "fail",
    )


def _skip(case_id: str, reference: float, tol: float) -> VerifyCase:
    nan = float("nan")
    return VerifyCase(case_id, reference, nan, nan, tol, "skip")


def _interior_grid(gt_max: float, n_times: int) -> list[float]:
    if n_times < 1:
        raise InvalidParameter("points", "verify needs at least 1 sample")
    if not 0.0 < gt_max < math.inf:
        raise InvalidParameter("t_stop", "verify needs a finite t_stop > 0")
    return [(k + 0.5) * gt_max / n_times for k in range(n_times)]


def _all_pairs(n: int) -> list[PairIndex]:
    return [
        PairIndex(m, k) for m in range(1, n + 1) for k in range(m + 1, n + 1)
    ]


def _concurrences(states, pairs: list[PairIndex],
                  qubit_bases) -> list[list[float | None]]:
    """Per pair, its oracle concurrence per sample, None where it
    degenerates: one reduction and one kernel call for all the pairs."""
    rho, degenerate = fockspace.reduce_to_qubit_pair(states, pairs, qubit_bases)
    values = iter(concurrence(rho).tolist())  # pair-major
    return [[None if d else next(values) for d in degenerate] for _ in pairs]


def _run(suite: str, tol: float, preparations) -> SuiteResult:
    """The sample loop every suite shares.

    preparations yields, per prepared state, N and its samples in grid
    order: (case id, state, qubit basis, closed form, extra rows). Each
    preparation makes two reductions, each scored by one kernel call: pair
    (1, 2) on every sample, and every other pair on every tenth sample
    (none at N = 2). Each sample writes its rows; a tenth sample then
    writes one /pairs row, whose oracle is the other pair farthest from the
    closed form, so its abs_error bounds every pair's. A sample whose qubit
    basis degenerates becomes one skip row; a basis over capacity turns the
    whole suite into one skip row.
    """
    cases: list[VerifyCase] = []
    try:
        for n, samples in preparations:
            states, bases = [s[1] for s in samples], [s[2] for s in samples]
            (c_pair,) = _concurrences(states, [PairIndex(1, 2)], bases)
            others = _all_pairs(n)[1:]
            c_others = _concurrences(states[::10], others, bases[::10]) if others else []
            for k, (case_id, _, _, reference, extra) in enumerate(samples):
                if c_pair[k] is None:
                    cases.append(_skip(f"{case_id}/degenerate", reference, tol))
                    continue
                cases.append(_case(case_id, reference, c_pair[k], tol))
                cases.extend(extra)
                if k % 10 == 0 and c_others:
                    farthest = max((c[k // 10] for c in c_others),
                                   key=lambda c: abs(reference - c))
                    cases.append(_case(f"{case_id}/pairs", reference, farthest, tol))
            # let this preparation's states go before the next one propagates
            samples = states = None
    except CapacityExceeded as exc:
        case_id = f"{suite}/capacity dimension={exc.dimension} limit={exc.limit}"
        return SuiteResult(suite, [_skip(case_id, float("nan"), tol)])
    return SuiteResult(suite, cases)


def single_photon_suite(n_values: tuple[int, ...] = (2, 3, 5),
                        n_times: int = 100,
                        gt_max: float = 2.0 * math.pi) -> SuiteResult:
    """Single-photon runs: concurrence law and photon-number duality.

    Per sampled time: oracle pair concurrence vs (2/N) sin^2(Gt) at 1e-8,
    and the duality identity at 1e-10 via the oracle photon number,
    comparing (2/N)(1 - <n>) against the law. The two rows check the pair
    reduction and the cavity population independently; both agree with the
    law to about 1e-15.
    """
    grid = _interior_grid(gt_max, n_times)

    def preparations():
        for n in n_values:
            params = SystemParams(n_crystallites=n)
            profile = CouplingProfile.from_params(params)
            basis = fockspace.build_basis(n + 1, 1)
            trajectory = fockspace.unitary_trajectory(
                fockspace.build_hamiltonian(profile, basis),
                fockspace.prepare_initial(SinglePhoton(), basis),
                [params.time_from_gt(gt) for gt in grid],
            )
            samples = []
            for gt, psi in zip(grid, trajectory):
                law = analytic.single_photon_concurrence(profile, gt, PairIndex(1, 2))
                duality = (2.0 / n) * (1.0 - fockspace.observable_mean_photon(psi, 0))
                case_id = f"single_photon/N={n}/Gt={gt:.10g}"
                samples.append((f"{case_id}/law", psi, analytic.NumberBasis(), law, (
                    _case(f"{case_id}/duality", law, duality, _SP_DUALITY_TOL),)))
            yield n, samples

    return _run("single_photon", _SP_TOL, preparations())


def cat_suite(n: int = 3,
              intensities: tuple[float, ...] = (0.25, 1.0),
              parities: tuple[ParityKind, ...] = (ParityKind.EVEN, ParityKind.ODD),
              n_times: int = 50,
              gt_max: float = 2.0 * math.pi) -> SuiteResult:
    """Cat-state runs: oracle tilde-basis concurrence vs the closed form."""
    grid = _interior_grid(gt_max, n_times)

    def preparations():
        for x in intensities:
            basis = fockspace.build_basis(n + 1, fockspace.minimum_truncation(x))
            hamiltonian = fockspace.build_hamiltonian(
                CouplingProfile.isotropic(1.0, n), basis
            )
            for parity in parities:
                params = SystemParams(n_crystallites=n, intensity=x, parity=parity)
                trajectory = fockspace.unitary_trajectory(
                    hamiltonian,
                    fockspace.prepare_initial(Cat(parity, params.alpha), basis),
                    [params.time_from_gt(gt) for gt in grid],
                )
                yield n, [(
                    f"cat/N={n}/x={x:.10g}/{parity.name.lower()}/Gt={gt:.10g}", psi,
                    analytic.cat_qubit_basis(params, gt),
                    analytic.coherent_concurrence(params, gt), (),
                ) for gt, psi in zip(grid, trajectory)]

    return _run("cat", _CAT_TOL, preparations())


def lindblad_suite(n: int = 2,
                   intensity: float = 0.25,
                   gamma_over_g: float = 0.13,
                   parities: tuple[ParityKind, ...] = (ParityKind.ODD,
                                                       ParityKind.EVEN),
                   n_times: int = 25,
                   gt_max: float = 4.0 * math.pi) -> SuiteResult:
    """Lossy runs: exact Lindblad propagation vs the damped closed form.

    The closed form solves this linear master equation exactly, so the
    1e-12 tolerance covers rounding alone (see _LINDBLAD_TOL); the
    propagator is also held to 1e-8 by its own drift guard.
    """
    grid = _interior_grid(gt_max, n_times)

    def preparations():
        basis = fockspace.build_basis(
            n + 1, fockspace.minimum_truncation(intensity, margin=2)
        )
        for parity in parities:
            params = SystemParams(
                n_crystallites=n,
                decay_rate=gamma_over_g,
                intensity=intensity,
                parity=parity,
            )
            psi0 = fockspace.prepare_initial(Cat(parity, params.alpha), basis)
            # psi0's density as one block on the states it populates
            support = np.flatnonzero(psi0.amplitudes)
            amp = psi0.amplitudes[support]
            rho0 = fockspace.MixedState(
                basis=basis, blocks=[(support, amp[:, None] * amp.conj())])
            yield n, [(
                f"lindblad/N={n}/x={intensity:.10g}/gamma={gamma_over_g:.10g}"
                f"/{parity.name.lower()}/Gt={gt:.10g}", rho,
                dissipative.damped_qubit_basis(params, gt),
                dissipative.damped_concurrence(params, gt), (),
            ) for gt, rho in zip(grid, fockspace.lindblad_trajectory(
                params, rho0, [params.time_from_gt(gt) for gt in grid]))]

    return _run("lindblad", _LINDBLAD_TOL, preparations())


def run_all(n_times: int | None = None,
            gt_max: float | None = None,
            n_override: int | None = None,
            intensity_override: float | None = None,
            gamma_override: float | None = None) -> list[SuiteResult]:
    """The three suites with optional uniform overrides (None keeps defaults)."""
    def given(**kwargs) -> dict:
        return {k: v for k, v in kwargs.items() if v is not None}

    common = given(n_times=n_times, gt_max=gt_max)
    return [
        single_photon_suite(**common, **given(
            n_values=None if n_override is None else (n_override,))),
        cat_suite(**common, **given(
            n=n_override,
            intensities=None if intensity_override is None else (intensity_override,))),
        lindblad_suite(**common, **given(
            n=n_override, intensity=intensity_override, gamma_over_g=gamma_override)),
    ]
