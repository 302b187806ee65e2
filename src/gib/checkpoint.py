"""Parameter checkpoints: a flat list of named float64 arrays.

Binary layout, little-endian throughout:

    magic line  b"GIBCKPT 1\\n"
    uint32      number of arrays
    per array:  uint32 name length, name bytes (utf-8),
                uint32 ndim, uint32 per dimension,
                float64 data in row-major order
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"GIBCKPT 1\n"


def save_params(path: str, named: list[tuple[str, np.ndarray]]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(named)))
        for name, array in named:
            raw = name.encode("utf-8")
            a = np.ascontiguousarray(array, dtype="<f8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(a.tobytes())


def _read(fh, size: int, path: str, what: str) -> bytes:
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise IOError(f"{path}: truncated checkpoint, {what} needs {size} bytes, found {left}")
    return fh.read(size)


def load_params(path: str) -> list[tuple[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise IOError(f"{path}: not a checkpoint file (bad header {magic!r})")
        (count,) = struct.unpack("<I", _read(fh, 4, path, "the array count"))
        out: list[tuple[str, np.ndarray]] = []
        for k in range(count):
            where = f"the name of array {k}"
            (name_len,) = struct.unpack("<I", _read(fh, 4, path, where))
            name = _read(fh, name_len, path, where).decode("utf-8")
            where = f"parameter {name!r}"
            (ndim,) = struct.unpack("<I", _read(fh, 4, path, where))
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, path, where))
            raw = _read(fh, 8 * math.prod(shape), path, where)
            data = np.frombuffer(raw, dtype="<f8").reshape(shape)
            out.append((name, data.astype(np.float64)))
    return out


def restore_into(named_params: list[tuple[str, "np.ndarray"]], loaded) -> None:
    """Copy loaded arrays into live parameter tensors, matching by name. The
    checkpoint must hold exactly the model's names and shapes; a mismatch
    raises ``IOError`` before any value moves."""
    table = dict(loaded)
    for name, tensor in named_params:
        if name not in table:
            raise IOError(f"checkpoint is missing parameter {name!r}")
        if table[name].shape != tensor.data.shape:
            raise IOError(
                f"checkpoint shape mismatch for {name!r}: "
                f"{table[name].shape} vs {tensor.data.shape}"
            )
    extra = sorted(table.keys() - {name for name, _ in named_params})
    if extra:
        raise IOError(f"checkpoint holds parameters the model lacks: {', '.join(map(repr, extra))}")
    for name, tensor in named_params:
        tensor.data[...] = table[name]
