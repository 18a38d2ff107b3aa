"""Shared fixtures: the oracle verification suites are the expensive part of
the run (the lossy one propagates a master equation over [0, 4pi]), so they
run once per session and every test reads from the same results."""

import pytest

from cavshare import verify


@pytest.fixture(scope="session")
def single_photon_result():
    return verify.single_photon_suite()


@pytest.fixture(scope="session")
def cat_result():
    return verify.cat_suite()


@pytest.fixture(scope="session")
def lindblad_result():
    return verify.lindblad_suite()
