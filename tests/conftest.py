"""Suite-wide pytest hooks."""

import ctypes
import glob
import os

import numpy as np
import pytest

from gib.tensor import Tensor


def _openblas_core() -> str:
    """The kernel OpenBLAS chose for this CPU (or was given through
    ``OPENBLAS_CORETYPE``), asked of the library the numpy wheel bundles."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def pytest_report_header():
    # the literal values of the *pinned* tests hold for one BLAS kernel
    # (ROADMAP item 1): the header says which one this run used
    return f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}"


@pytest.fixture
def tensors_made(monkeypatch) -> list[Tensor]:
    """Every tensor constructed from here to the end of the test."""
    made, init = [], Tensor.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", recorded)
    return made
