"""Shared fixtures and helpers for the test suite.

``make_page`` and ``drive`` live in :mod:`repro.harness.fixtures` (one
definition shared with ``benchmarks/conftest.py``); they are re-exported
here so tests keep importing them from ``.conftest``.
"""

import pytest

from repro.ec import native
from repro.harness.fixtures import drive, make_page  # noqa: F401  (re-export)
from repro.sim import Simulator


@pytest.fixture
def sim():
    """A fresh simulator per test."""
    return Simulator()


@pytest.fixture(params=["numpy", "native"])
def ec_backend(request, monkeypatch):
    """Run the test on one GF(2^8) backend: the numpy one always, the
    native one when it loads on this host."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "_KERNEL", native.NumpyGF())
    elif native.load_native() is None:
        pytest.skip("native GF(2^8) kernel did not load")
    return request.param
