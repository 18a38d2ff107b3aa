"""Command-line driver: figure data, sweeps, optimization, verification.

Runs are configured by `key = value` files and/or mirroring flags, and all
output is CSV with a single `#` metadata line recording the effective
parameters. Formatting is pinned (17 significant digits, comma delimiter,
LF endings) so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import analytic, dissipative
from .errors import (
    CapacityExceeded,
    InvalidParameter,
    ParseError,
    StepSizeUnstable,
    UnknownKey,
)
from .model import CouplingProfile, PairIndex, ParityKind, SinglePhoton, SystemParams
from .optimize import _PEAK_GT, OptimumReport, optimal_intensity

_GRID_KEYS = ("t_start", "t_stop", "points")
_TIME_AXIS = (0.0, 2.0 * math.pi, 801)  # 400 points per pi-period
_FIG2_INTENSITY_AXIS = (0.0, 6.0, 61)
_FIG3_INTENSITIES = (0.01, 0.1, 1.0, 2.0)
_FIG2CD_N = (2, 3, 5, 10)
_CHUNK_ROWS = 512  # rows turned into text and written at a time


def _grid(start: float, stop: float, points: int) -> np.ndarray:
    if points < 2:
        raise InvalidParameter("points", "grid needs at least 2 points")
    for key, value in (("t_start", start), ("t_stop", stop)):
        if not math.isfinite(value):
            raise InvalidParameter(key, "grid bounds must be finite")
    if not stop > start:
        raise InvalidParameter("t_stop", "grid stop must exceed start")
    return np.linspace(start, stop, points)


def _field_columns(records: list, cls) -> list[list]:
    """A column per field of dataclass cls, in field order, over records."""
    return [[getattr(record, field.name) for record in records]
            for field in fields(cls)]


# Column functions of the table: (grid, keys by name) -> columns. Each
# validates the parameters it uses.

def _fig1_columns(gts, N):
    params = SystemParams(n_crystallites=N)
    profile = CouplingProfile.isotropic(1.0, N)
    return (gts,
            analytic.single_photon_concurrence(profile, gts, PairIndex(1, 2)),
            analytic.mean_photon_number(params, gts, SinglePhoton()))


def _surface_columns(gts, N, parity):
    SystemParams(n_crystallites=N, parity=parity)  # validates N
    xs = _grid(*_FIG2_INTENSITY_AXIS)
    surface = analytic.cat_concurrence(N, parity, xs, gts[:, None])
    return np.repeat(gts, xs.size), np.tile(xs, gts.size), surface.ravel()


def _peak_columns(xs, parity):
    for end in (xs[0], xs[-1]):  # the grid is monotone: its ends bound it
        SystemParams(n_crystallites=2, intensity=end, parity=parity)
    ns = np.array(_FIG2CD_N)
    curves = analytic.cat_concurrence(ns[:, None], parity, xs, _PEAK_GT)
    return np.tile(xs, ns.size), curves.ravel(), np.repeat(ns, xs.size)


def _fig3_columns(grid):
    xs = np.array(_FIG3_INTENSITIES)[:, None]
    ns = np.arange(2, 11)
    odd, even = (analytic.cat_concurrence(ns, parity, xs, _PEAK_GT)
                 for parity in (ParityKind.ODD, ParityKind.EVEN))
    return (np.repeat(xs, ns.size), np.tile(ns, xs.size), odd.ravel(),
            even.ravel(), np.tile(2.0 / ns, xs.size))


def _fig4_columns(gts, N, alpha2):
    systems = [
        SystemParams(n_crystallites=N, decay_rate=ratio, intensity=alpha2, parity=parity)
        for ratio in (0.13, 0.5)
        for parity in (ParityKind.ODD, ParityKind.EVEN)
    ]
    return (gts, *(dissipative.damped_concurrence(params, gts)
                   for params in systems))


def _sweep_columns(gts, N, g, gamma_over_g, alpha2, parity):
    params = SystemParams(n_crystallites=N, coupling=g, decay_rate=gamma_over_g * g,
                          intensity=alpha2, parity=parity)
    if gamma_over_g > 0.0:
        return gts, dissipative.damped_concurrence(params, gts)
    return gts, analytic.coherent_concurrence(params, gts)


def _optimize_columns(grid, N, parity):
    n_values = [N] if N is not None else list(range(2, 11))
    reports = [optimal_intensity(n, parity) for n in n_values]
    return (n_values, [parity.value] * len(n_values),
            *_field_columns(reports, OptimumReport))


def _verify_columns(grid, N, alpha2, gamma_over_g, t_stop, points):
    from . import verify  # the Fock oracle loads only for this command

    results = verify.run_all(n_times=points, gt_max=t_stop, n_override=N,
                             intensity_override=alpha2,
                             gamma_override=gamma_over_g)
    return _field_columns([case for result in results for case in result.cases],
                          verify.VerifyCase)


@dataclass(frozen=True)
class _Entry:
    """One output of the table. keys: the (key, default) pairs it reads, in
    metadata-line order (a None default is written only when set); grid: the
    defaults of the grid keys (None: no grid); header and columns: its CSV;
    fixed: (key, value) pairs it writes after keys but never reads."""

    keys: tuple[tuple[str, object], ...]
    grid: tuple[float, float, int] | None
    header: tuple[str, ...]
    columns: Callable[..., Sequence]
    fixed: tuple[tuple[str, object], ...] = ()


_N3 = (("N", 3),)
_ODD = (("parity", ParityKind.ODD),)
_EVEN = (("parity", ParityKind.EVEN),)
_SURFACE = ("Gt", "intensity", "concurrence")
_PEAKS = ("intensity", "max_concurrence", "N")
# fig2c/d have no time axis (the peak is taken at Gt = pi/2): their grid keys
# drive the intensity axis instead. fig2a-d write their own parity and never
# read the parity key. fig4 is damped evolution for both parities and two
# decay ratios, in wide columns.
_FIGURES = {
    "fig1": _Entry(_N3, _TIME_AXIS, ("Gt", "concurrence", "mean_photon"),
                   _fig1_columns),
    "fig2a": _Entry(_N3, _TIME_AXIS, _SURFACE, _surface_columns, _ODD),
    "fig2b": _Entry(_N3, _TIME_AXIS, _SURFACE, _surface_columns, _EVEN),
    "fig2c": _Entry((), (0.0, 6.0, 601), _PEAKS, _peak_columns, _ODD),
    "fig2d": _Entry((), (0.0, 6.0, 601), _PEAKS, _peak_columns, _EVEN),
    "fig3": _Entry((), None, ("intensity", "N", "max_concurrence_odd",
                              "max_concurrence_even", "two_over_N"),
                   _fig3_columns),
    "fig4": _Entry(_N3 + (("alpha2", 1.0),), (0.0, 6.0 * math.pi, 2401),
                   ("Gt", "odd_gamma_0.13", "even_gamma_0.13", "odd_gamma_0.5",
                    "even_gamma_0.5"), _fig4_columns),
}
_SWEEP = _Entry(_N3 + (("g", 1.0), ("gamma_over_g", 0.0), ("alpha2", 1.0))
                + _ODD, _TIME_AXIS, ("Gt", "concurrence"), _sweep_columns)
_OPTIMIZE = _Entry((("N", None),) + _ODD, None,
                   ("N", "parity", *(field.name for field in fields(OptimumReport))),
                   _optimize_columns)
_VERIFY = _Entry(tuple((key, None) for key in ("N", "alpha2", "gamma_over_g",
                                               "t_stop", "points")), None,
                 ("case_id", "analytic", "oracle", "abs_error", "tolerance",
                  "status"), _verify_columns)
# command -> the entries it may run
_COMMANDS = {"figure": tuple(_FIGURES.values()), "sweep": (_SWEEP,),
             "optimize": (_OPTIMIZE,), "verify": (_VERIFY,)}


def _one_of(options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError
        return raw
    return parse


# config key -> (parser raising ValueError, what it expects)
_KEYS = {
    "command": (_one_of(_COMMANDS), f"one of {', '.join(_COMMANDS)}"),
    "figure": (_one_of(_FIGURES), f"one of {', '.join(_FIGURES)}"),
    "N": (int, "an integer"),
    "g": (float, "a number"),
    "gamma_over_g": (float, "a number"),
    "alpha2": (float, "a number"),
    "parity": (lambda raw: ParityKind(raw.lower()), "even or odd"),
    "t_start": (float, "a number"),
    "t_stop": (float, "a number"),
    "points": (int, "an integer"),
    "out": (str, None),
}


def _set(cfg: dict, key: str, raw: str, lineno: int | None) -> None:
    parse, expected = _KEYS[key]
    try:
        cfg[key] = parse(raw)
    except ValueError:
        raise ParseError(lineno, f"bad value for {key}: {raw!r} "
                                 f"(expected {expected})") from None


def parse_config(text: str) -> dict:
    """Parse a `key = value` document (blank lines and # comments allowed)
    into the keys it sets; a key left out takes the command's default."""
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(lineno, "expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise UnknownKey(key)
        _set(cfg, key, raw, lineno)
    return cfg


def _spec(value) -> str:
    """%.17g for a float (numpy's included), %s for text and integers."""
    return "%.17g" if isinstance(value, float) else "%s"


def _cells(chunk, spec: str) -> list[str]:
    """Each value of a column chunk as text; %.17g formats each distinct bit
    pattern once (the int64 view keeps -0.0 apart from 0.0)."""
    if spec == "%s":
        return list(map(str, chunk))
    bits = np.asarray(chunk, dtype=np.float64).view(np.int64)
    keys, index = np.unique(bits, return_inverse=True)
    text = ["%.17g" % v for v in keys.view(np.float64).tolist()]
    return np.array(text, dtype=object)[index].tolist()


def _write_csv(path: str, meta: list[tuple[str, object]], header: Sequence[str],
               columns: Sequence[Sequence]) -> int:
    """Write the metadata line, the header and the rows; return the row count.

    A header and columns of unequal lengths are refused (ValueError). Each
    column's format follows its first value; every command writes at least
    one row. Rows stream out _CHUNK_ROWS at a time, each chunk's text made
    column by column (_cells) and written at once, so a figure's text never
    sits in memory whole; callers compute every value before writing.
    """
    lengths = [len(column) for column in columns]
    if len(header) != len(columns) or len(set(lengths)) > 1:
        raise ValueError(f"CSV header of {len(header)} names, column lengths {lengths}")
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("# " + " ".join(f"{k}={_spec(v) % v}" for k, v in meta)
                     + "\n")
        handle.write(",".join(header) + "\n")
        for start in range(0, lengths[0], _CHUNK_ROWS):
            cells = [_cells(column[start:start + _CHUNK_ROWS], _spec(column[0]))
                     for column in columns]
            handle.write("\n".join(map(",".join, zip(*cells))) + "\n")
    return lengths[0]


def _run(cfg: dict, command: str, entry: _Entry,
         figure: str | None = None) -> tuple[str, Sequence]:
    """Resolve entry's keys from cfg, build its grid and write its CSV under
    the metadata line: command, figure (if any), each set key in declared
    order, the grid keys, out. Return the output path and the columns."""
    values = {key: cfg.get(key, default) for key, default in entry.keys}
    values.update(entry.fixed)
    axis = [(key, cfg.get(key, default))
            for key, default in zip(_GRID_KEYS, entry.grid or ())]
    grid = _grid(*(value for _, value in axis)) if axis else None
    columns = entry.columns(grid, **values)
    out = cfg.get("out", f"{figure or command}.csv")
    meta = [("command", command), *([("figure", figure)] if figure else []),
            *((key, getattr(value, "value", value))  # a ParityKind as its value
              for key, value in values.items() if value is not None),
            *axis, ("out", out)]
    _write_csv(out, meta, entry.header, columns)
    return out, columns


def run_figure(cfg: dict) -> tuple[str, Sequence]:
    name = cfg.get("figure", "fig1")
    return _run(cfg, "figure", _FIGURES[name], name)


def run_sweep(cfg: dict) -> tuple[str, Sequence]:
    return _run(cfg, "sweep", _SWEEP)


def run_optimize(cfg: dict) -> tuple[str, Sequence]:
    return _run(cfg, "optimize", _OPTIMIZE)


def run_verify(cfg: dict) -> int:
    out, columns = _run(cfg, "verify", _VERIFY)
    n_pass, n_fail, n_skip = map(columns[-1].count, ("pass", "fail", "skip"))
    print(f"verify: {n_pass} pass, {n_fail} fail, {n_skip} skip -> {out}")
    return 2 if n_fail else 3 if n_skip else 0


def _refuse_unread(cfg: dict, command: str) -> None:
    """A set key that no entry of the command declares is an error; the
    first in declared order is named."""
    accepted = {"command", "out"} | ({"figure"} if command == "figure" else set())
    for entry in _COMMANDS[command]:
        accepted.update(key for key, _ in entry.keys + entry.fixed)
        accepted.update(_GRID_KEYS if entry.grid is not None else ())
    for key in _KEYS:
        if key in cfg and key not in accepted:
            raise InvalidParameter(key, f"not read by the {command} command")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we own codes
        raise ParseError(None, message)

    def _parse_optional(self, arg):  # "-1e-05", as metadata writes it, is a value
        return None if re.match(r"-\.?\d", arg) else super()._parse_optional(arg)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavshare",
        description="Pairwise-entanglement data generator: figure data, "
                    "sweeps, intensity optimization, analytic-vs-oracle "
                    "verification.",
    )
    parser.add_argument("--config", help="configuration file (key = value lines)")
    for key in _KEYS:
        parser.add_argument(f"--{key}", dest=key, help=f"config key {key}")
    return parser


def main(argv: list[str]) -> int:
    ns = build_arg_parser().parse_args(argv)
    cfg = {}
    if ns.config is not None:
        with open(ns.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
    for key in _KEYS:
        raw = getattr(ns, key)
        if raw is not None:
            _set(cfg, key, raw, None)
    command = cfg.get("command", "figure")
    _refuse_unread(cfg, command)
    if command == "verify":
        return run_verify(cfg)
    # looked up per call, so a wrapped run_* is the one that runs
    run = {"figure": run_figure, "sweep": run_sweep, "optimize": run_optimize}
    path, columns = run[command](cfg)
    print(f"{command}: wrote {len(columns[0])} rows -> {path}")
    return 0


# the exit code of each error entrypoint reports, the first that matches
_EXIT_CODES = {OSError: 1, ValueError: 1, StepSizeUnstable: 2, CapacityExceeded: 3}


def entrypoint(argv: list[str] | None = None) -> int:
    try:
        return main(sys.argv[1:] if argv is None else argv)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
