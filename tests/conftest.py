"""Suite-wide pytest hooks."""

import numpy as np
import pytest

from gib.cli import openblas_core
from gib.tensor import Tensor


def pytest_report_header():
    # the literal values of the *pinned* tests hold for one BLAS kernel
    # (ROADMAP item 1): the header says which one this run used
    return f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"


@pytest.fixture
def tensors_made(monkeypatch) -> list[Tensor]:
    """Every tensor constructed from here to the end of the test."""
    made, init = [], Tensor.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", recorded)
    return made
