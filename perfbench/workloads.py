"""The four workloads: the operations of one pass and the outputs they leave.

A pass runs in a fresh interpreter (see child.py). The seed only fixes the
order of the operations within a pass, so every seed does the same work on
the same inputs. The reasons behind each workload are in README.md.

``full`` is what the benchmark measures; ``tiny`` runs the same operations on
small grids so the smoke test can exercise every code path in seconds.
"""

from __future__ import annotations

import hashlib
import math
import random

NAMES = ("closed_forms", "oracle_unitary", "oracle_large_sector",
         "oracle_lindblad")
SIZES = ("full", "tiny")
# the host-speed kernel (hostspeed.py) that slows the way each pass does
PROBE_KIND = {"closed_forms": "interpreter", "oracle_unitary": "lapack",
              "oracle_large_sector": "lapack", "oracle_lindblad": "lapack"}
FIGURES = ("fig1", "fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4")


def cli_ops(size: str, seed: int) -> list[dict]:
    """closed_forms: the CLI commands of one pass.

    Figures are written to their default file name, as the golden hashes
    under tests/golden were recorded that way (the path is part of the
    metadata line). Goldens apply only at full size.
    """
    tiny = size == "tiny"
    grid = ["--points", "3"] if tiny else []
    ops = [{"id": fig, "argv": ["--figure", fig] + grid, "out": f"{fig}.csv",
            "golden": None if tiny else fig} for fig in FIGURES]
    for parity in ("even", "odd"):
        out = f"optimize_{parity}.csv"
        ops.append({
            "id": f"optimize_{parity}",
            "argv": ["--command", "optimize", "--parity", parity, "--out", out]
                    + (["--N", "3"] if tiny else []),
            "out": out, "golden": None,
        })
    ops.append({
        "id": "sweep_damped",
        "argv": ["--command", "sweep", "--gamma_over_g", "0.13",
                 "--out", "sweep_damped.csv"] + grid,
        "out": "sweep_damped.csv", "golden": None,
    })
    random.Random(seed).shuffle(ops)
    return ops


def verify_calls(name: str, size: str, seed: int, parity_kind) -> list[dict]:
    """Oracle workloads: the verify-suite calls of one pass."""
    rng = random.Random(seed)
    tiny = size == "tiny"

    def parities():
        order = [parity_kind.EVEN, parity_kind.ODD]
        rng.shuffle(order)
        return tuple(order)

    if name == "oracle_unitary":
        n_values = [2] if tiny else [2, 3, 5]
        rng.shuffle(n_values)
        calls = [
            {"id": "single_photon_suite", "suite": "single_photon_suite",
             "kwargs": {"n_values": tuple(n_values),
                        **({"n_times": 2} if tiny else {})}},
            {"id": "cat_suite", "suite": "cat_suite",
             "kwargs": {"parities": parities(),
                        **({"n": 2, "intensities": (0.25,), "n_times": 2}
                           if tiny else {})}},
        ]
        rng.shuffle(calls)
        return calls
    if name == "oracle_large_sector":
        return [{"id": "cat_suite", "suite": "cat_suite",
                 "kwargs": {"n": 2 if tiny else 5, "intensities": (0.25,),
                            "n_times": 2 if tiny else 4,
                            "parities": parities()}}]
    if name == "oracle_lindblad":
        return [{"id": "lindblad_suite", "suite": "lindblad_suite",
                 "kwargs": {"n_times": 1 if tiny else 5,
                            "gt_max": math.pi / (64.0 if tiny else 8.0),
                            "parities": parities()}}]
    raise ValueError(f"unknown workload {name!r}")


def file_digest(path) -> tuple[str, int, int]:
    """sha256, bytes and data rows (lines after the metadata and header)."""
    data = path.read_bytes()
    rows = max(0, data.count(b"\n") - 2)
    return hashlib.sha256(data).hexdigest(), len(data), rows


def cases_digest(cases) -> str:
    """Identity of a suite's outcome: which cases ran and how each ended."""
    h = hashlib.sha256()
    for case in cases:
        h.update(f"{case.case_id}\t{case.status}\n".encode())
    return h.hexdigest()
