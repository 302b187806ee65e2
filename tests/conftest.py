"""Suite-wide pytest hooks."""

import numpy as np
import pytest

from gib.cli import openblas_core
from gib.tensor import Tensor


def pytest_report_header():
    # every *pinned* test holds one literal per BLAS kernel (kernel_pin): the
    # header says which kernel this run used
    return f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"


@pytest.fixture
def kernel_pin():
    """Picks this run's record out of ``{OpenBLAS core: pinned value}``.
    Kernels of other vector widths round products differently, so a bitwise
    pin holds for the kernel it was recorded on; a kernel with no record
    fails the test by name."""
    def pick(pins: dict):
        core = openblas_core()
        if core not in pins:
            pytest.fail(f"no pinned values for OpenBLAS core {core!r}; "
                        f"recorded for {', '.join(sorted(pins))}")
        return pins[core]
    return pick


@pytest.fixture
def tensors_made(monkeypatch) -> list[Tensor]:
    """Every tensor constructed from here to the end of the test."""
    made, init = [], Tensor.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", recorded)
    return made
