"""Command-line driver: figure data, sweeps, optimization, verification.

Runs are configured by `key = value` files and/or mirroring flags, and all
output is CSV with a single `#` metadata line recording the effective
parameters. Formatting is pinned (17 significant digits, comma delimiter,
LF endings) so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
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
from .optimize import _PEAK_GT, OptimumReport, optimal_intensities, optimal_intensity

_GRID_KEYS = ("t_start", "t_stop", "points")
_TIME_AXIS = (0.0, 2.0 * math.pi, 801)  # 400 points per pi-period
_FIG2_INTENSITY_AXIS = (0.0, 6.0, 61)
_FIG3_INTENSITIES = (0.01, 0.1, 1.0, 2.0)
_FIG2CD_N = (2, 3, 5, 10)
_CHUNK_ROWS = 512  # rows turned into text and written at a time
_BLOCK_ROWS = 4096  # rows computed at a time: a run holds its grid and one block


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


def _blocks(axis: np.ndarray, width: int = 1) -> Iterator[np.ndarray]:
    """Consecutive slices of axis, each of as many values as fit in
    _BLOCK_ROWS rows at `width` rows a value (one value at least)."""
    step = max(1, _BLOCK_ROWS // width)
    return (axis[start:start + step] for start in range(0, axis.size, step))


# Column functions of the table: (grid, keys by name) -> the table's rows in
# order, as blocks of columns. Each validates the parameters it uses before
# its first block.

def _fig1_columns(gts, N):
    params = SystemParams(n_crystallites=N)
    profile = CouplingProfile.isotropic(1.0, N)
    for block in _blocks(gts):
        yield (block,
               analytic.single_photon_concurrence(profile, block, PairIndex(1, 2)),
               analytic.mean_photon_number(params, block, SinglePhoton()))


def _surface_columns(gts, N, parity):
    SystemParams(n_crystallites=N, parity=parity)  # validates N
    xs = _grid(*_FIG2_INTENSITY_AXIS)
    for block in _blocks(gts, xs.size):  # whole time rows of every intensity
        surface = analytic.cat_concurrence(N, parity, xs, block[:, None])
        yield np.repeat(block, xs.size), np.tile(xs, block.size), surface.ravel()


def _peak_columns(xs, parity):
    for end in (xs[0], xs[-1]):  # the grid is monotone: its ends bound it
        SystemParams(n_crystallites=2, intensity=end, parity=parity)
    # e^(2|alpha|^2) overflows first at the largest intensity, which may lie
    # past the first block
    analytic.cat_concurrence(np.array(_FIG2CD_N), parity, xs[-1], _PEAK_GT)
    for n in _FIG2CD_N:
        for block in _blocks(xs):
            yield (block, analytic.cat_concurrence(n, parity, block, _PEAK_GT),
                   np.full(block.size, n))


def _fig3_columns(grid):
    xs = np.array(_FIG3_INTENSITIES)[:, None]
    ns = np.arange(2, 11)
    odd, even = (analytic.cat_concurrence(ns, parity, xs, _PEAK_GT)
                 for parity in (ParityKind.ODD, ParityKind.EVEN))
    yield (np.repeat(xs, ns.size), np.tile(ns, xs.size), odd.ravel(),
           even.ravel(), np.tile(2.0 / ns, xs.size))


def _damped_columns(gts, systems):
    """The times and each system's damped concurrence, block by block. From
    Gt = 0 on, N v'^2 < 1 keeps e^(4|alpha v'|^2) below e^(2|alpha|^2), which
    every block evaluates; before it the envelope e^(-gamma t/4) grows, so
    the blocks of negative times run once up front for their overflow."""
    for block in _blocks(gts[:np.searchsorted(gts, 0.0)]):
        for params in systems:
            dissipative.damped_concurrence(params, block)
    for block in _blocks(gts):
        yield block, *(dissipative.damped_concurrence(params, block)
                       for params in systems)


def _fig4_columns(gts, N, alpha2):
    systems = [
        SystemParams(n_crystallites=N, decay_rate=ratio, intensity=alpha2, parity=parity)
        for ratio in (0.13, 0.5)
        for parity in (ParityKind.ODD, ParityKind.EVEN)
    ]
    return _damped_columns(gts, systems)


def _sweep_columns(gts, N, g, gamma_over_g, alpha2, parity):
    params = SystemParams(n_crystallites=N, coupling=g, decay_rate=gamma_over_g * g,
                          intensity=alpha2, parity=parity)
    if gamma_over_g > 0.0:
        return _damped_columns(gts, [params])
    return ((block, analytic.coherent_concurrence(params, block))
            for block in _blocks(gts))


def _optimize_columns(grid, N, parity):
    n_values = [N] if N is not None else list(range(2, 11))
    # one N through optimal_intensity, the call perfbench's tracer wraps here
    reports = ([optimal_intensity(N, parity)] if N is not None
               else optimal_intensities(n_values, parity))
    yield (n_values, [parity.value] * len(n_values),
           *_field_columns(reports, OptimumReport))


def _verify_columns(grid, N, alpha2, gamma_over_g, t_stop, points):
    from . import verify  # the Fock oracle loads only for this command

    results = verify.run_all(n_times=points, gt_max=t_stop, n_override=N,
                             intensity_override=alpha2,
                             gamma_override=gamma_over_g)
    yield _field_columns([case for result in results for case in result.cases],
                         verify.VerifyCase)


@dataclass(frozen=True)
class _Entry:
    """One output of the table. keys: the (key, default) pairs it reads, in
    metadata-line order (a None default is written only when set); grid: the
    defaults of the grid keys (None: no grid); header and columns: its CSV,
    columns yielding its rows as blocks of columns; fixed: (key, value)
    pairs it writes after keys but never reads."""

    keys: tuple[tuple[str, object], ...]
    grid: tuple[float, float, int] | None
    header: tuple[str, ...]
    columns: Callable[..., Iterator[Sequence[Sequence]]]
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


def _cells(chunk, spec: str) -> tuple[str, list]:
    """The format and the values of a column chunk, for the one % that
    renders its chunk. Text and integers go in as they are under %s. Floats
    go in as floats under %.17g when more than half of them are distinct;
    otherwise each distinct bit pattern is formatted once (the int64 view
    keeps -0.0 apart from 0.0) and its text goes in under %s."""
    if spec == "%s":
        return "%s", chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
    values = np.asarray(chunk, dtype=np.float64)
    keys, index = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * keys.size > values.size:
        return "%.17g", values.tolist()
    text = ["%.17g" % v for v in keys.view(np.float64).tolist()]
    return "%s", np.array(text, dtype=object)[index].tolist()


def _rows(header: Sequence[str], columns: Sequence[Sequence]) -> int:
    """The row count of a block; a header and columns of unequal lengths are
    refused (ValueError)."""
    lengths = [len(column) for column in columns]
    if len(header) != len(columns) or len(set(lengths)) > 1:
        raise ValueError(f"CSV header of {len(header)} names, column lengths {lengths}")
    return lengths[0]


def _write_blocks(path: str, meta: list[tuple[str, object]], header: Sequence[str],
                  first: Sequence[Sequence], rest: Iterable[Sequence[Sequence]]) -> int:
    """Write the metadata line, the header and the rows of each block, first
    then rest; return the row count.

    first is checked before the file is opened, and each block of rest as it
    comes. Each column's format follows its first value in the block; every
    command writes at least one row. Rows stream out _CHUNK_ROWS at a time:
    a chunk's text is one % of a row template repeated over its rows, each
    column's format and values from _cells, and is written at once, so a
    table's text never sits in memory whole, and a block is written before
    the next is computed, so neither do its values.
    """
    _rows(header, first)
    total = 0
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write("# " + " ".join(f"{k}={_spec(v) % v}" for k, v in meta)
                     + "\n")
        handle.write(",".join(header) + "\n")
        for columns in itertools.chain([first], rest):
            rows = _rows(header, columns)
            for start in range(0, rows, _CHUNK_ROWS):
                specs, cells = zip(*(_cells(column[start:start + _CHUNK_ROWS],
                                            _spec(column[0]))
                                     for column in columns))
                template = (",".join(specs) + "\n") * len(cells[0])
                handle.write(template % tuple(itertools.chain.from_iterable(
                    zip(*cells))))
            total += rows
    return total


def _write_csv(path: str, meta: list[tuple[str, object]], header: Sequence[str],
               columns: Sequence[Sequence]) -> int:
    """_write_blocks of a table held whole as its columns."""
    return _write_blocks(path, meta, header, columns, ())


def _run(cfg: dict, command: str, entry: _Entry,
         figure: str | None = None) -> tuple[str, int, Sequence[Sequence]]:
    """Resolve entry's keys from cfg, build its grid and write its CSV under
    the metadata line: command, figure (if any), each set key in declared
    order, the grid keys, out. The column function's checks and first block
    run before the file is opened, so a refused run leaves no file and an
    existing one as it was. Return the output path, the row count and the
    first block (the whole table of a one-block entry)."""
    values = {key: cfg.get(key, default) for key, default in entry.keys}
    values.update(entry.fixed)
    axis = [(key, cfg.get(key, default))
            for key, default in zip(_GRID_KEYS, entry.grid or ())]
    grid = _grid(*(value for _, value in axis)) if axis else None
    blocks = entry.columns(grid, **values)
    first = next(blocks)
    out = cfg.get("out", f"{figure or command}.csv")
    meta = [("command", command), *([("figure", figure)] if figure else []),
            *((key, getattr(value, "value", value))  # a ParityKind as its value
              for key, value in values.items() if value is not None),
            *axis, ("out", out)]
    return out, _write_blocks(out, meta, entry.header, first, blocks), first


def run_figure(cfg: dict) -> tuple[str, int]:
    name = cfg.get("figure", "fig1")
    return _run(cfg, "figure", _FIGURES[name], name)[:2]


def run_sweep(cfg: dict) -> tuple[str, int]:
    return _run(cfg, "sweep", _SWEEP)[:2]


def run_optimize(cfg: dict) -> tuple[str, int]:
    return _run(cfg, "optimize", _OPTIMIZE)[:2]


def run_verify(cfg: dict) -> int:
    out, _, columns = _run(cfg, "verify", _VERIFY)  # one block: every row
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
    path, rows = run[command](cfg)
    print(f"{command}: wrote {rows} rows -> {path}")
    return 0


# the exit code of each error entrypoint reports, the first that matches
_EXIT_CODES = {OSError: 1, ValueError: 1, StepSizeUnstable: 2, CapacityExceeded: 3}


def entrypoint(argv: list[str] | None = None) -> int:
    try:
        return main(sys.argv[1:] if argv is None else argv)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
