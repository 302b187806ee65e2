"""gib: recognize informative yet compressed subgraphs of labeled graphs.

A self-contained numpy implementation of subgraph recognition through a
graph information bottleneck: a subgraph generator trained against a
classification loss, a Donsker-Varadhan mutual-information estimator, and a
connectivity loss, optimized with an inner/outer (bi-level) loop.
"""

import ctypes

__version__ = "0.1.0"

# mallopt parameters from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> bool:
    """Make glibc reuse freed heap instead of returning it to the OS.

    Training frees and reallocates arrays of the same sizes at every step.
    With glibc's defaults the free space at the top of the heap goes back to
    the OS and is faulted in again at the next allocation; a 256 MiB trim
    threshold keeps it, so freed heap stays in the process until it exits.
    Setting a threshold also stops glibc from raising its mmap threshold as
    it goes, which would leave every array above 128 KiB in a mapping of its
    own, unmapped at each free; so the mmap threshold is set first, to
    32 MiB, the ceiling that glibc would raise it to.

    Returns whether both settings took. Where the C library has no
    ``mallopt`` (macOS, musl, Windows) it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 256 << 20))


_keep_freed_heap()

from .graphs import (
    Dataset,
    Graph,
    MotifConfig,
    add_noise_edges,
    gen_planted_motif_dataset,
    kfold_splits,
    load_tu_dataset,
    random_splits,
    save_tu_dataset,
    to_line_graph,
)
from .models import AttentionClassifier, GibModel, MeanPoolClassifier
from .subgraph import connectivity_loss, discretize, largest_connected_part
from .tensor import Tensor
from .train import TrainConfig, TrainResult, train

__all__ = [
    "AttentionClassifier",
    "Dataset",
    "GibModel",
    "Graph",
    "MeanPoolClassifier",
    "MotifConfig",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "__version__",
    "add_noise_edges",
    "connectivity_loss",
    "discretize",
    "gen_planted_motif_dataset",
    "kfold_splits",
    "largest_connected_part",
    "load_tu_dataset",
    "random_splits",
    "save_tu_dataset",
    "to_line_graph",
    "train",
]
