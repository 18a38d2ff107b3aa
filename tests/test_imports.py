"""Each command imports only what it runs: the closed-form commands load no
scipy at all, the Fock oracle loads scipy.sparse but no scipy.linalg, and
no run loads mpmath, which only the tests use as a reference (crmath's
fixed-point stage decides every argument, however large). The oracle
imports no closed-form module. The Lindblad suite's peak memory grows with
its sample count by blocks, not by dense samples, and a figure's does not
grow with its points.

Every case runs in a fresh interpreter, since this process has long since
imported everything the other tests use (and grown to its size).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str, cwd: Path) -> str:
    """What code prints when run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _modules(code: str, cwd: Path, package: str = "scipy") -> list[str]:
    """The modules of package loaded after code runs in a fresh interpreter."""
    report = ("\nimport sys\nprint(*sorted(m for m in sys.modules"
              f" if m.split('.')[0] == {package!r}))")
    return _run(code + report, cwd).splitlines()[-1].split()  # below what the code prints


@pytest.mark.parametrize("suite", [
    "single_photon_suite(n_values=(2,), n_times=2)",
    "cat_suite(n=2, intensities=(0.25,), n_times=2)",
    "lindblad_suite(n_times=1, gt_max=0.1)",
], ids=["single_photon", "cat", "lindblad"])
def test_oracle_suites_load_no_scipy_linalg(suite, tmp_path):
    loaded = _modules(
        f"from cavshare import verify\nassert verify.{suite}.counts()[1] == 0",
        tmp_path)
    assert "scipy.sparse" in loaded
    assert [m for m in loaded if m.startswith("scipy.linalg")] == []


@pytest.mark.parametrize("argv", [
    ["--figure", "fig1"],
    ["--command", "optimize", "--N", "3"],
    ["--command", "sweep", "--points", "3"],
    ["--figure", "fig4", "--points", "3"],
    ["--command", "sweep", "--gamma_over_g", "0.13", "--points", "3"],
])
def test_closed_form_commands_load_no_scipy(argv, tmp_path):
    loaded = _modules(
        f"from cavshare import cli\nassert cli.main({argv!r}) == 0", tmp_path)
    assert loaded == []


def test_package_exports_the_oracle_on_first_use(tmp_path):
    loaded = _modules(
        "import sys\n"
        "import cavshare\n"
        "assert 'cavshare.fockspace' not in sys.modules\n"
        "from cavshare import build_basis, MixedState\n"
        "from cavshare.fockspace import FockBasis\n"
        "assert isinstance(build_basis(2, 1), FockBasis)\n"
        "assert MixedState is cavshare.fockspace.MixedState\n"
        "for name in cavshare.__all__:\n"
        "    getattr(cavshare, name)\n",
        tmp_path)
    assert "scipy.sparse" in loaded


def test_package_names_are_derived_from_what_it_binds():
    # __all__ is every public name the package binds, its submodules aside,
    # plus the oracle's: 60 names, each from a cavshare module
    import cavshare
    from types import ModuleType

    names = cavshare.__all__
    eager = {name for name, value in vars(cavshare).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == sorted(set(names)) and len(names) == 60
    assert set(names) == eager | cavshare._FOCKSPACE_NAMES
    assert {"cat_qubit_basis", "damped_qubit_basis"} <= eager
    for name in names:
        value = getattr(cavshare, name)
        assert not isinstance(value, ModuleType)
        assert value.__module__.startswith("cavshare."), name


def test_oracle_imports_no_closed_form_module():
    # fockspace checks the closed forms, so of the package it imports only
    # the domain types (model), the density validator and the errors; a
    # `from . import analytic` would add None to the set
    tree = ast.parse(Path(_SRC, "cavshare", "fockspace.py").read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"model", "entanglement", "errors"}


def _peak_rss_bytes(code: str, cwd: Path) -> int:
    """ru_maxrss (KiB on Linux) after code runs in a fresh interpreter, in bytes."""
    report = "\nimport resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    return 1024 * int(_run(code + report, cwd).splitlines()[-1])


def test_lindblad_peak_memory_grows_by_blocks_not_dense_samples(tmp_path):
    # every sample is held at once, as blocks: an odd cat sample of the
    # default basis holds 161^2 + 203^2 entries, 1.07 MB (1.11 MB a sample
    # measured), where a dense 364-state sample would hold 2.1 MB
    code = ("import math\nfrom cavshare import verify\n"
            "assert verify.lindblad_suite(n_times={}, gt_max=math.pi / 8)"
            ".counts() == (2 * {}, 0, 0)")
    few, many = (_peak_rss_bytes(code.format(n, n), tmp_path) for n in (5, 40))
    assert (many - few) / 35 < 1.5e6


def test_figure_peak_memory_does_not_grow_with_points(tmp_path):
    # a figure holds its grid (8 B a time) and one block of rows: fig2a at
    # 8001 times is 488 061 rows, whose columns alone would take 11 MB
    code = "from cavshare import cli\nassert cli.main(['--figure', 'fig2a'{}]) == 0"
    few, many = (_peak_rss_bytes(code.format(extra), tmp_path)
                 for extra in ("", ", '--points', '8001'"))
    assert many - few < 4 << 20


_SWEEP = "from cavshare import cli\nassert cli.main(['--command', 'sweep', {}]) == 0"


@pytest.mark.parametrize("code", [
    "from cavshare import cli\nassert cli.main(['--figure', 'fig2a']) == 0",
    "from cavshare import verify\nassert verify.single_photon_suite().counts()[1] == 0",
    "from cavshare import verify\nassert verify.cat_suite().counts()[1] == 0",
    # sin and cos arguments far past |x| = 512
    _SWEEP.format("'--t_stop', '1000', '--points', '2001'"),
    _SWEEP.format("'--gamma_over_g', '0.13', '--t_stop', '1e6', '--points', '2001'"),
], ids=["fig2a", "single_photon", "cat", "sweep_1000", "damped_sweep_1e6"])
def test_default_runs_load_no_mpmath(code, tmp_path):
    assert _modules(code, tmp_path, "mpmath") == []
