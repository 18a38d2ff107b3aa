"""Per-layer spans around cavshare's public functions, installed from outside.

A traced pass patches each callable where its callers look it up: a name
brought in with ``from .entanglement import concurrence`` is a second binding
in the importing module, so both bindings are listed. Methods are patched on
their class. Nothing in ``src/`` changes, and untraced passes never import
this module.

A target that no longer exists is recorded as missing with the reason,
never raised, so a rename inside the package leaves a visible gap in the
trace instead of a broken benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref

# layer -> every place the callable is looked up, as "module:attribute" or
# "module:Class.method" relative to the cavshare package.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.run_figure": ("cli:run_figure",),
    "cli.run_sweep": ("cli:run_sweep",),
    "cli.run_optimize": ("cli:run_optimize",),
    "optimize.optimal_intensity": ("optimize:optimal_intensity",
                                   "cli:optimal_intensity"),
    "model.SystemParams": ("model:SystemParams.__init__",),
    "analytic.coherent_concurrence": ("analytic:coherent_concurrence",
                                      "optimize:coherent_concurrence"),
    "analytic.single_photon_concurrence": (
        "analytic:single_photon_concurrence",),
    "analytic.mean_photon_number": ("analytic:mean_photon_number",),
    "dissipative.damped_concurrence": ("dissipative:damped_concurrence",),
    "verify.single_photon_suite": ("verify:single_photon_suite",),
    "verify.cat_suite": ("verify:cat_suite",),
    "verify.lindblad_suite": ("verify:lindblad_suite",),
    "entanglement.concurrence": ("entanglement:concurrence",
                                 "verify:concurrence"),
    "fockspace.build_basis": ("fockspace:build_basis",),
    "fockspace.build_hamiltonian": ("fockspace:build_hamiltonian",),
    "fockspace.prepare_initial": ("fockspace:prepare_initial",),
    "fockspace.sector_eigensystems": (
        "fockspace:SparseHermitian.sector_eigensystems",),
    "fockspace.evolve_unitary": ("fockspace:evolve_unitary",),
    "fockspace.reduce_to_qubit_pair": ("fockspace:reduce_to_qubit_pair",),
    "fockspace.MixedState": ("fockspace:MixedState.__init__",),
    "fockspace.lindblad_trajectory": ("fockspace:lindblad_trajectory",),
}

# Work counts read off call arguments and results. They repeat exactly from
# pass to pass; eigh_work is computed from sector sizes, not measured.
COUNT_UNITS: dict[str, str] = {
    "fockspace.basis_dim": "states",
    "fockspace.max_sector_dim": "states",
    "fockspace.eigh_work": "dim3_computed",
    "fockspace.lindblad_vec_dim": "entries",
    "optimize.iterations": "count",
}


def metric_units() -> dict[str, str]:
    """Every metric a traced pass reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNT_UNITS)
    return units


class Tracer:
    """Call counts, self time and work counts for one traced pass.

    Self time is a span's duration minus the time covered by the spans it
    encloses. Spans nest on one stack because a pass runs on one thread.
    """

    def __init__(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNT_UNITS}
        self.missing: dict[str, str] = {}
        self._children: list[float] = []
        self._eigensolved: weakref.WeakSet = weakref.WeakSet()

    def wrap(self, layer: str, fn, after=None):
        children = self._children
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[layer] += 1
                self_s[layer] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(result, args)
            return result

        return span

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        return out

    # Count hooks. Each reads only public attributes; if one has gone, the
    # count is marked missing and the pass carries on.

    def _guarded(self, name: str, read):
        def hook(result, args):
            try:
                read(result, args)
            except (AttributeError, TypeError, IndexError) as exc:
                self.missing.setdefault(name, f"{type(exc).__name__}: {exc}")
        return hook

    def _count_basis(self, basis, _args) -> None:
        sizes = _sector_sizes(basis)
        self.counts["fockspace.basis_dim"] = max(
            self.counts["fockspace.basis_dim"], basis.dimension)
        self.counts["fockspace.max_sector_dim"] = max(
            self.counts["fockspace.max_sector_dim"], max(sizes))

    def _count_eigh(self, _result, args) -> None:
        hamiltonian = args[0]
        if hamiltonian in self._eigensolved:
            return  # cached on the operator: no new eigensolve
        self._eigensolved.add(hamiltonian)
        self.counts["fockspace.eigh_work"] += sum(
            size ** 3 for size in _sector_sizes(hamiltonian.basis))

    def _count_lindblad(self, _result, args) -> None:
        dim = args[1].basis.dimension
        self.counts["fockspace.lindblad_vec_dim"] = max(
            self.counts["fockspace.lindblad_vec_dim"], dim * dim)

    def _count_iterations(self, report, _args) -> None:
        self.counts["optimize.iterations"] += int(report.iterations)

    def hooks(self) -> dict[str, object]:
        return {
            "fockspace.build_basis": self._guarded(
                "fockspace.basis_dim", self._count_basis),
            "fockspace.sector_eigensystems": self._guarded(
                "fockspace.eigh_work", self._count_eigh),
            "fockspace.lindblad_trajectory": self._guarded(
                "fockspace.lindblad_vec_dim", self._count_lindblad),
            "optimize.optimal_intensity": self._guarded(
                "optimize.iterations", self._count_iterations),
        }


def _sector_sizes(basis) -> list[int]:
    offsets = basis.sector_offsets
    return [hi - lo for lo, hi in zip(offsets, offsets[1:])]


def install() -> Tracer:
    """Patch every target in LAYERS and return the tracer that records them."""
    tracer = Tracer()
    hooks = tracer.hooks()
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, _, path = target.partition(":")
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(f"cavshare.{module_name}")
                for name in owners:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                tracer.missing[target] = f"{type(exc).__name__}: {exc}"
                continue
            setattr(owner, attr,
                    tracer.wrap(layer, original, hooks.get(layer)))
    return tracer
