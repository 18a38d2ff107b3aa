"""Command-line driver: figure data, sweeps, optimization, verification.

Runs are configured by `key = value` files and/or mirroring flags, and all
output is CSV with a single `#` metadata line recording the effective
parameters. Formatting is pinned (17 significant digits, comma delimiter,
LF endings) so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields, replace

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

_COMMANDS = ("figure", "sweep", "optimize", "verify")

_TIME_AXIS = (0.0, 2.0 * math.pi, 801)  # 400 points per pi-period
_FIG2_INTENSITY_AXIS = (0.0, 6.0, 61)
_FIG3_INTENSITIES = (0.01, 0.1, 1.0, 2.0)
_FIG2CD_N = (2, 3, 5, 10)
_CHUNK_ROWS = 512  # rows turned into text and written at a time


@dataclass(frozen=True)
class RunConfig:
    """Effective run settings; None means "use the command's default"."""

    command: str = "figure"
    figure: str = "fig1"
    n: int | None = None
    g: float | None = None
    gamma_over_g: float | None = None
    alpha2: float | None = None
    parity: ParityKind | None = None
    t_start: float | None = None
    t_stop: float | None = None
    points: int | None = None
    out: str | None = None


def _grid(start: float, stop: float, points: int) -> np.ndarray:
    if points < 2:
        raise InvalidParameter("points", "grid needs at least 2 points")
    if not stop > start:
        raise InvalidParameter("t_stop", "grid stop must exceed start")
    return np.linspace(start, stop, points)


def _axis(cfg: RunConfig, default_start: float, default_stop: float,
          default_points: int) -> tuple[float, float, int]:
    start = cfg.t_start if cfg.t_start is not None else default_start
    stop = cfg.t_stop if cfg.t_stop is not None else default_stop
    points = cfg.points if cfg.points is not None else default_points
    return start, stop, points


# Column functions of the figure table: (parity, N, |alpha|^2, grid) ->
# columns. Each validates the parameters it uses.

def _fig1_columns(parity, n, x, gts):
    params = SystemParams(n_crystallites=n)
    profile = CouplingProfile.isotropic(1.0, n)
    return (gts,
            analytic.single_photon_concurrence(profile, gts, PairIndex(1, 2)),
            analytic.mean_photon_number(params, gts, SinglePhoton()))


def _surface_columns(parity, n, x, gts):
    SystemParams(n_crystallites=n, parity=parity)  # validates N
    xs = _grid(*_FIG2_INTENSITY_AXIS)
    surface = analytic.cat_concurrence(n, parity, xs, gts[:, None])
    return np.repeat(gts, xs.size), np.tile(xs, gts.size), surface.ravel()


def _peak_columns(parity, n, x, xs):
    for end in (xs[0], xs[-1]):  # the grid is monotone: its ends bound it
        SystemParams(n_crystallites=2, intensity=end, parity=parity)
    ns = np.array(_FIG2CD_N)
    curves = analytic.cat_concurrence(ns[:, None], parity, xs, _PEAK_GT)
    return np.tile(xs, ns.size), curves.ravel(), np.repeat(ns, xs.size)


def _fig3_columns(parity, n, x, grid):
    xs = np.array(_FIG3_INTENSITIES)[:, None]
    ns = np.arange(2, 11)
    odd, even = (analytic.cat_concurrence(ns, parity, xs, _PEAK_GT)
                 for parity in (ParityKind.ODD, ParityKind.EVEN))
    return (np.repeat(xs, ns.size), np.tile(ns, xs.size), odd.ravel(),
            even.ravel(), np.tile(2.0 / ns, xs.size))


def _fig4_columns(parity, n, x, gts):
    systems = [
        SystemParams(n_crystallites=n, decay_rate=ratio, intensity=x, parity=parity)
        for ratio in (0.13, 0.5)
        for parity in (ParityKind.ODD, ParityKind.EVEN)
    ]
    return (gts, *(dissipative.damped_concurrence(params, gts)
                   for params in systems))


@dataclass(frozen=True)
class _Figure:
    """One figure: the default (start, stop, points) of its grid keys (None:
    it has no grid), its CSV header, the metadata keys it writes between
    the figure name and the grid keys, its parity, and its column function."""

    axis: tuple[float, float, int] | None
    header: tuple[str, ...]
    meta: tuple[str, ...]
    parity: ParityKind | None
    columns: Callable[..., Sequence]


_SURFACE = ("Gt", "intensity", "concurrence")
_PEAKS = ("intensity", "max_concurrence", "N")
# fig2c/d have no time axis (the peak is taken at Gt = pi/2): their grid keys
# drive the intensity axis instead. fig4 is damped evolution for both
# parities and two decay ratios, in wide columns.
_FIGURES = {
    "fig1": _Figure(_TIME_AXIS, ("Gt", "concurrence", "mean_photon"),
                    ("N",), None, _fig1_columns),
    "fig2a": _Figure(_TIME_AXIS, _SURFACE, ("N", "parity"), ParityKind.ODD,
                     _surface_columns),
    "fig2b": _Figure(_TIME_AXIS, _SURFACE, ("N", "parity"), ParityKind.EVEN,
                     _surface_columns),
    "fig2c": _Figure((0.0, 6.0, 601), _PEAKS, ("parity",), ParityKind.ODD,
                     _peak_columns),
    "fig2d": _Figure((0.0, 6.0, 601), _PEAKS, ("parity",), ParityKind.EVEN,
                     _peak_columns),
    "fig3": _Figure(None, ("intensity", "N", "max_concurrence_odd",
                           "max_concurrence_even", "two_over_N"),
                    (), None, _fig3_columns),
    "fig4": _Figure((0.0, 6.0 * math.pi, 2401),
                    ("Gt", "odd_gamma_0.13", "even_gamma_0.13", "odd_gamma_0.5",
                     "even_gamma_0.5"), ("N", "alpha2"), None, _fig4_columns),
}


def _one_of(options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError
        return raw
    return parse


# config key -> (RunConfig field, parser raising ValueError, what it expects)
_KEYS = {
    "command": ("command", _one_of(_COMMANDS), f"one of {', '.join(_COMMANDS)}"),
    "figure": ("figure", _one_of(_FIGURES), f"one of {', '.join(_FIGURES)}"),
    "N": ("n", int, "an integer"),
    "g": ("g", float, "a number"),
    "gamma_over_g": ("gamma_over_g", float, "a number"),
    "alpha2": ("alpha2", float, "a number"),
    "parity": ("parity", lambda raw: ParityKind(raw.lower()), "even or odd"),
    "t_start": ("t_start", float, "a number"),
    "t_stop": ("t_stop", float, "a number"),
    "points": ("points", int, "an integer"),
    "out": ("out", str, None),
}


def _set(cfg: RunConfig, key: str, raw: str, lineno: int) -> RunConfig:
    field, parse, expected = _KEYS[key]
    try:
        value = parse(raw)
    except ValueError:
        raise ParseError(lineno, f"bad value for {key}: {raw!r} "
                                 f"(expected {expected})") from None
    return replace(cfg, **{field: value})


def parse_config(text: str) -> RunConfig:
    """Parse a `key = value` document (blank lines and # comments allowed)."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(lineno, "expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise UnknownKey(key)
        cfg = _set(cfg, key, raw, lineno)
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


def _field_columns(records: list, cls) -> tuple[list[str], list[list]]:
    """The field names of dataclass cls and a column per field of records."""
    names = [field.name for field in fields(cls)]
    return names, [[getattr(record, name) for record in records]
                   for name in names]


def run_figure(cfg: RunConfig) -> tuple[str, int]:
    fig = _FIGURES[cfg.figure]
    out = cfg.out if cfg.out is not None else f"{cfg.figure}.csv"
    n = cfg.n if cfg.n is not None else 3
    x = cfg.alpha2 if cfg.alpha2 is not None else 1.0
    values = {"N": n, "alpha2": x, "parity": getattr(fig.parity, "value", None)}
    meta = [("command", "figure"), ("figure", cfg.figure)]
    meta += [(key, values[key]) for key in fig.meta]
    grid = None
    if fig.axis is not None:
        start, stop, points = _axis(cfg, *fig.axis)
        grid = _grid(start, stop, points)
        meta += [("t_start", start), ("t_stop", stop), ("points", points)]
    columns = fig.columns(fig.parity, n, x, grid)
    count = _write_csv(out, meta + [("out", out)], fig.header, columns)
    return out, count


def run_sweep(cfg: RunConfig) -> tuple[str, int]:
    out = cfg.out if cfg.out is not None else "sweep.csv"
    n = cfg.n if cfg.n is not None else 3
    g = cfg.g if cfg.g is not None else 1.0
    ratio = cfg.gamma_over_g if cfg.gamma_over_g is not None else 0.0
    x = cfg.alpha2 if cfg.alpha2 is not None else 1.0
    parity = cfg.parity if cfg.parity is not None else ParityKind.ODD
    start, stop, points = _axis(cfg, *_TIME_AXIS)
    params = SystemParams(
        n_crystallites=n, coupling=g, decay_rate=ratio * g, intensity=x,
        parity=parity,
    )
    gts = _grid(start, stop, points)
    if ratio > 0.0:
        values = dissipative.damped_concurrence(params, gts)
    else:
        values = analytic.coherent_concurrence(params, gts)
    meta = [("command", "sweep"), ("N", n), ("g", g), ("gamma_over_g", ratio),
            ("alpha2", x), ("parity", parity.value), ("t_start", start),
            ("t_stop", stop), ("points", points), ("out", out)]
    count = _write_csv(out, meta, ["Gt", "concurrence"], [gts, values])
    return out, count


def run_optimize(cfg: RunConfig) -> tuple[str, int]:
    out = cfg.out if cfg.out is not None else "optimize.csv"
    parity = cfg.parity if cfg.parity is not None else ParityKind.ODD
    n_values = [cfg.n] if cfg.n is not None else list(range(2, 11))
    names, columns = _field_columns(
        [optimal_intensity(n, parity) for n in n_values], OptimumReport)
    meta = [("command", "optimize"), ("parity", parity.value), ("out", out)]
    if cfg.n is not None:
        meta.insert(1, ("N", cfg.n))
    count = _write_csv(out, meta, ["N", "parity", *names],
                       [n_values, [parity.value] * len(n_values), *columns])
    return out, count


def run_verify(cfg: RunConfig) -> int:
    from . import verify  # the Fock oracle loads only for this command

    out = cfg.out if cfg.out is not None else "verify.csv"
    results = verify.run_all(
        n_times=cfg.points,
        gt_max=cfg.t_stop,
        n_override=cfg.n,
        intensity_override=cfg.alpha2,
        gamma_override=cfg.gamma_over_g,
    )
    meta: list[tuple[str, object]] = [("command", "verify")]
    for key, value in (("N", cfg.n), ("alpha2", cfg.alpha2),
                       ("gamma_over_g", cfg.gamma_over_g),
                       ("t_stop", cfg.t_stop), ("points", cfg.points)):
        if value is not None:
            meta.append((key, value))
    meta.append(("out", out))
    _write_csv(out, meta, *_field_columns(
        [case for result in results for case in result.cases],
        verify.VerifyCase))
    n_pass, n_fail, n_skip = map(sum, zip(*(r.counts() for r in results)))
    print(f"verify: {n_pass} pass, {n_fail} fail, {n_skip} skip -> {out}")
    if n_fail:
        return 2
    if n_skip:
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we own codes
        raise ParseError(0, message)


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
    if ns.config is not None:
        with open(ns.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
    else:
        cfg = RunConfig()
    for key in _KEYS:
        raw = getattr(ns, key)
        if raw is not None:
            cfg = _set(cfg, key, raw, 0)
    if cfg.command == "verify":
        return run_verify(cfg)
    # looked up per call, so a wrapped run_* is the one that runs
    run = {"figure": run_figure, "sweep": run_sweep, "optimize": run_optimize}
    path, count = run[cfg.command](cfg)
    print(f"{cfg.command}: wrote {count} rows -> {path}")
    return 0


def entrypoint(argv: list[str] | None = None) -> int:
    try:
        return main(sys.argv[1:] if argv is None else argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StepSizeUnstable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
