"""Shared fixtures: the oracle verification suites are the expensive part of
the run (the lossy one propagates a master equation over [0, 4pi]), so they
run once per session and every test reads from the same results.

BLAS runs single-threaded unless the caller says otherwise: the oracle's
matrices are small, so a second thread gains nothing and contends with
anything else on the host. BLAS reads these variables once, when numpy is
first imported, so they are set before that import.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before the BLAS thread limit"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from cavshare import verify  # noqa: E402


@pytest.fixture(scope="session")
def single_photon_result():
    return verify.single_photon_suite()


@pytest.fixture(scope="session")
def cat_result():
    return verify.cat_suite()


@pytest.fixture(scope="session")
def lindblad_result():
    return verify.lindblad_suite()
