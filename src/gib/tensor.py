"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable quantity in this package is a :class:`Tensor` wrapping a
64-bit numpy array. Operations record their inputs and a local-gradient
closure on the fly (define-by-run), so each forward pass builds a fresh tape.
``Tensor.backward()`` replays the tape in reverse topological order and
accumulates exact chain-rule gradients into ``.grad``.

Design points:
  * float64 everywhere; gradient checks against central finite differences
    need the precision, and nothing here is large enough to want float32.
  * relu subgradient at exactly 0 is 0.
  * An affine layer with its activation, ``act(x @ w + b)``, is one node
    (:func:`dense`) that keeps one output array on the tape; it is bitwise
    the same as the ``matmul``, ``add`` and activation chain.
  * Dense arrays only; the graphs handled here have tens of nodes.
  * Segment ops (one graph per range of rows) take :class:`Segments`, whose
    spans are checked once, when they are built (with a batch), not on
    every call.
  * :func:`row_softmax` takes row maxima and sums column by column, which
    is much cheaper than numpy's axis-1 reductions on its N x 2 inputs. It
    is bitwise the axis-reduction form only for two columns; wider rows
    agree to rounding.
  * Broadcasting in add/sub/mul follows numpy; gradients of broadcast
    operands are reduce-summed back to the operand shape.
  * Data enters as constants (:func:`constant`): leaves that need no
    gradient. An op's output needs one when any of its inputs does; the tape
    leaves out everything else, and no gradient is computed or stored for
    it. Leaves built with ``Tensor(values)`` need gradients (parameters).
  * A tensor's first gradient is stored as it comes, without a copy, and
    later ones are added into a new array, so one gradient array may be
    the ``.grad`` of several tensors. Gradient arrays are therefore
    read-only: no code may write into ``.grad`` in place.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class Tensor:
    """A node of the computation tape: value, gradient, parents."""

    __slots__ = ("data", "grad", "parents", "grad_fn", "op", "requires_grad")

    def __init__(
        self,
        values,
        parents: tuple[Tensor, ...] = (),
        grad_fn: Optional[Callable[[np.ndarray], None]] = None,
        op: str = "leaf",
        requires_grad: bool = True,
    ):
        self.data = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        if parents:
            # a plain loop: ``any`` over a generator costs more on every node
            requires_grad = False
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self.parents = parents
        self.grad_fn = grad_fn
        self.op = op

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() needs a scalar, got shape {self.data.shape}")
        return self.data.item()

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    def _accumulate(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    def tape(self) -> list[Tensor]:
        """All nodes that need a gradient and are reachable from this one
        through nodes that need one, in topological order.

        Every node's parents appear before the node itself, so iterating the
        reversed list during backward visits each op after all its consumers.
        A constant's tape is empty.
        """
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)] if self.requires_grad else []
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in reversed(node.parents):
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        return order

    def backward(self) -> None:
        """Populate ``.grad`` of every tensor on this scalar loss's tape."""
        if self.data.size != 1:
            raise ShapeMismatch(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        order = self.tape()
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node.grad_fn is not None and node.grad is not None:
                node.grad_fn(node.grad)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    @property
    def T(self) -> Tensor:
        return transpose(self)


def constant(values) -> Tensor:
    """A leaf that needs no gradient: data, targets, pooling matrices."""
    return Tensor(values, requires_grad=False)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce-sum a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcastable(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or not sa or not sb:
        return
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeMismatch(f"{op}: shapes {sa} and {sb} do not broadcast") from None


# -- elementwise arithmetic -------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "add")
    out = Tensor(a.data + b.data, (a, b), op="add")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    out.grad_fn = grad_fn
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "sub")
    out = Tensor(a.data - b.data, (a, b), op="sub")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    out.grad_fn = grad_fn
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "mul")
    out = Tensor(a.data * b.data, (a, b), op="mul")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    out.grad_fn = grad_fn
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data, (a,), op="neg")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(-g)

    out.grad_fn = grad_fn
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), (a,), op="relu")
    mask = a.data > 0.0  # subgradient at 0 is 0

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * mask)

    out.grad_fn = grad_fn
    return out


def _tanh_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(1 - y^2) * g in one buffer, y being tanh's output."""
    d = np.multiply(y, y, out=np.empty_like(y))
    np.subtract(1.0, d, out=d)
    d *= g
    return d


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, (a,), op="tanh")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(_tanh_grad(y, g))

    out.grad_fn = grad_fn
    return out


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y, (a,), op="exp")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * y)

    out.grad_fn = grad_fn
    return out


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log: input must be strictly positive")
    out = Tensor(np.log(a.data), (a,), op="log")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g / a.data)

    out.grad_fn = grad_fn
    return out


# -- matrix ops --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatch(
            f"matmul: expected 2-d operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(
            f"matmul: inner dimensions disagree, {a.data.shape} x {b.data.shape}"
        )
    out = Tensor(a.data @ b.data, (a, b), op="matmul")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    out.grad_fn = grad_fn
    return out


def dense(x: Tensor, w: Tensor, b: Optional[Tensor], activation: str) -> Tensor:
    """``activation(x @ w + b)`` as one node: a whole affine layer.

    The product goes into a fresh array and the bias and activation are
    applied to it in place, so the layer keeps one N x d_out array on the
    tape, not three. ``b`` is a 1 x d_out row or ``None``; ``activation`` is
    ``"identity"``, ``"relu"`` or ``"tanh"``. Value and gradients are
    bitwise those of the ``matmul``, ``add`` and activation chain: the
    backward forms the pre-activation gradient once and runs the chain's
    numpy expressions in the chain's order (relu's mask is read off the
    output, which is positive exactly where the pre-activation is).
    """
    if activation not in ("identity", "relu", "tanh"):
        raise ValueError(f"dense: unknown activation {activation!r}")
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatch(f"dense: input {x.data.shape} does not fit weight {w.data.shape}")
    if b is not None and b.data.shape != (1, w.data.shape[1]):
        raise ShapeMismatch(
            f"dense: bias {b.data.shape} does not fit weight {w.data.shape}, "
            f"expected (1, {w.data.shape[1]})"
        )
    y = x.data @ w.data
    if b is not None:
        y += b.data
    if activation == "tanh":
        np.tanh(y, out=y)
    elif activation == "relu":
        np.maximum(y, 0.0, out=y)
    out = Tensor(y, (x, w) if b is None else (x, w, b), op="dense")

    def grad_fn(g: np.ndarray) -> None:
        if activation == "tanh":
            d = _tanh_grad(y, g)
        elif activation == "relu":
            d = g * (y > 0.0)  # subgradient at 0 is 0
        else:
            d = g
        if b is not None and b.requires_grad:
            # _unbroadcast's column sum without its shape bookkeeping; a
            # one-row d passes as it is, as there
            b._accumulate(d if d.shape[0] == 1 else np.add.reduce(d, axis=0, keepdims=True))
        if x.requires_grad:
            x._accumulate(d @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ d)

    out.grad_fn = grad_fn
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose: expected a matrix, got {a.data.shape}")
    out = Tensor(a.data.T.copy(), (a,), op="transpose")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g.T)

    out.grad_fn = grad_fn
    return out


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 1 x d (or m x d) tensors vertically."""
    parts = list(parts)
    if not parts:
        raise ShapeMismatch("concat_rows: need at least one tensor")
    width = parts[0].data.shape[1]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[1] != width:
            raise ShapeMismatch(
                f"concat_rows: widths disagree, {p.data.shape} vs (:, {width})"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=0), tuple(parts), op="concat_rows")
    sizes = [p.data.shape[0] for p in parts]

    def grad_fn(g: np.ndarray) -> None:
        offset = 0
        for p, m in zip(parts, sizes):
            if p.requires_grad:
                p._accumulate(g[offset : offset + m, :])
            offset += m

    out.grad_fn = grad_fn
    return out


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack m x d tensors horizontally."""
    parts = list(parts)
    if not parts:
        raise ShapeMismatch("concat_cols: need at least one tensor")
    height = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != height:
            raise ShapeMismatch(
                f"concat_cols: heights disagree, {p.data.shape} vs ({height}, :)"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), tuple(parts), op="concat_cols")
    sizes = [p.data.shape[1] for p in parts]

    def grad_fn(g: np.ndarray) -> None:
        offset = 0
        for p, m in zip(parts, sizes):
            if p.requires_grad:
                p._accumulate(g[:, offset : offset + m])
            offset += m

    out.grad_fn = grad_fn
    return out


# -- row-wise normalizers ----------------------------------------------------


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max of each row as a column, folded column by column: on tall,
    narrow arrays numpy's axis-1 reduction costs far more per row."""
    m = x[:, :1].copy()
    for j in range(1, x.shape[1]):
        np.maximum(m, x[:, j : j + 1], out=m)
    return m


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum of each row as a column, added column by column from 0.0.

    For two columns it is bitwise numpy's ``x.sum(axis=1, keepdims=True)``,
    the sign of zero included; wider rows may differ from numpy's pairwise
    summation in the last bits.
    """
    s = x[:, :1] + 0.0
    for j in range(1, x.shape[1]):
        s += x[:, j : j + 1]
    return s


def row_softmax(a: Tensor) -> Tensor:
    """Softmax over each row, stabilized by max subtraction.

    Row maxima and sums are taken column by column (:func:`_row_max`,
    :func:`_row_sum`), since the assignment matrices are N x 2; value and
    gradient are bitwise those of the axis-1 reductions for two columns and
    agree to rounding (a few ulp) for wider rows.
    """
    if a.data.ndim != 2:
        raise ShapeMismatch(f"row_softmax: expected a matrix, got {a.data.shape}")
    e = np.exp(a.data - _row_max(a.data))
    y = e / _row_sum(e)
    out = Tensor(y, (a,), op="row_softmax")

    def grad_fn(g: np.ndarray) -> None:
        # dL/dx = y * (g - sum_j g_j y_j) per row
        dot = _row_sum(g * y)
        a._accumulate(y * (g - dot))

    out.grad_fn = grad_fn
    return out


def row_l1_normalize(a: Tensor) -> Tensor:
    """Divide each row by its sum; an all-zero row stays an all-zero row.

    Intended for nonnegative matrices (row sums are taken verbatim, not as
    absolute values). The zero-row case carries zero gradient: the normalized
    zero row is treated as a constant.
    """
    if a.data.ndim != 2:
        raise ShapeMismatch(f"row_l1_normalize: expected a matrix, got {a.data.shape}")
    if np.any(a.data < 0.0):
        raise ValueError("row_l1_normalize: input must be nonnegative")
    s = a.data.sum(axis=1, keepdims=True)
    nonzero = s != 0.0
    safe = np.where(nonzero, s, 1.0)
    y = np.where(nonzero, a.data / safe, 0.0)
    out = Tensor(y, (a,), op="row_l1_normalize")

    def grad_fn(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=1, keepdims=True)
        a._accumulate(np.where(nonzero, (g - dot) / safe, 0.0))

    out.grad_fn = grad_fn
    return out


# -- reductions ----------------------------------------------------------------


def _require_nonempty(a: Tensor, op: str) -> None:
    if a.data.size == 0:
        raise ShapeMismatch(f"{op}: empty tensor")


def tsum(a: Tensor) -> Tensor:
    _require_nonempty(a, "sum")
    out = Tensor(a.data.sum(), (a,), op="sum")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(np.full_like(a.data, float(g)))

    out.grad_fn = grad_fn
    return out


def tmean(a: Tensor) -> Tensor:
    _require_nonempty(a, "mean")
    n = a.data.size
    # the sum and divide of ndarray.mean, without its Python wrapper
    out = Tensor(np.add.reduce(a.data, axis=None) / n, (a,), op="mean")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(np.full_like(a.data, float(g) / n))

    out.grad_fn = grad_fn
    return out


def frobenius_norm(a: Tensor) -> Tensor:
    """sqrt(sum of squares). Subgradient at the zero matrix is 0."""
    _require_nonempty(a, "frobenius_norm")
    value = float(np.sqrt((a.data * a.data).sum()))
    out = Tensor(value, (a,), op="frobenius_norm")

    def grad_fn(g: np.ndarray) -> None:
        if value > 0.0:
            a._accumulate(float(g) * a.data / value)

    out.grad_fn = grad_fn
    return out


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(x))) over all entries, max-shifted for stability."""
    _require_nonempty(a, "logsumexp")
    m = a.data.max()
    e = np.exp(a.data - m)
    z = e.sum()
    out = Tensor(m + np.log(z), (a,), op="logsumexp")
    soft = e / z

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(float(g) * soft)

    out.grad_fn = grad_fn
    return out


def row_logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(x))) of each row, as a column, max-shifted per row."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"row_logsumexp: expected a matrix, got {a.data.shape}")
    _require_nonempty(a, "row_logsumexp")
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    z = e.sum(axis=1, keepdims=True)
    out = Tensor(m + np.log(z), (a,), op="row_logsumexp")
    soft = e / z

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * soft)

    out.grad_fn = grad_fn
    return out


def row_norms(a: Tensor) -> Tensor:
    """Euclidean norm of each row, as a column. Subgradient at a zero row is 0."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"row_norms: expected a matrix, got {a.data.shape}")
    norms = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    nonzero = norms > 0.0
    safe = np.where(nonzero, norms, 1.0)
    out = Tensor(norms, (a,), op="row_norms")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(np.where(nonzero, g * a.data / safe, 0.0))

    out.grad_fn = grad_fn
    return out


# -- segment ops: consecutive row ranges, one per graph ------------------------


class Segments:
    """Consecutive ranges of rows (or entries), one per graph, checked once.

    ``offsets`` must rise strictly from 0; segment b covers
    ``spans[b] = (offsets[b], offsets[b+1])`` and every segment is nonempty.
    The check runs here, when the segments are built (a :class:`GraphBatch`
    builds them with the batch), not in every segment op: an op only checks
    that the segments cover its input.
    """

    __slots__ = ("spans", "starts", "sizes", "total")

    def __init__(self, offsets: Sequence[int] | np.ndarray):
        bounds = np.asarray(offsets).tolist()
        if len(bounds) < 2 or bounds[0] != 0 or any(e <= s for s, e in zip(bounds, bounds[1:])):
            raise ShapeMismatch(f"segment offsets must rise strictly from 0, got {bounds}")
        self.spans = list(zip(bounds[:-1], bounds[1:]))
        self.starts = np.array(bounds[:-1])
        self.sizes = np.diff(bounds)
        self.total = bounds[-1]

    def __len__(self) -> int:
        return len(self.spans)

    def require_total(self, n: int, op: str) -> None:
        if n != self.total:
            raise ShapeMismatch(f"{op}: segment offsets cover {self.total}, the input has {n}")


def segment_matmul(blocks: Sequence[np.ndarray], a: Tensor, segments: Segments) -> Tensor:
    """Block-diagonal product: segment b of the result is ``blocks[b] @`` segment b of ``a``.

    The blocks are constants (square, one per segment). Each is applied in a
    loop inside this one node, its product written straight into the output,
    so the block-diagonal matrix is never formed. Block shapes are not
    checked per call: a block that does not fit its segment makes numpy's
    product raise.
    """
    if a.data.ndim != 2:
        raise ShapeMismatch(f"segment_matmul: expected a matrix, got {a.data.shape}")
    segments.require_total(a.data.shape[0], "segment_matmul")
    if len(blocks) != len(segments):
        raise ShapeMismatch(f"segment_matmul: {len(blocks)} blocks for {len(segments)} segments")
    spans = segments.spans
    x = a.data
    y = np.empty(x.shape)
    for block, (start, end) in zip(blocks, spans):
        np.matmul(block, x[start:end], out=y[start:end])
    out = Tensor(y, (a,), op="segment_matmul")

    def grad_fn(g: np.ndarray) -> None:
        buf = np.empty(x.shape)
        for block, (start, end) in zip(blocks, spans):
            np.matmul(block.T, g[start:end], out=buf[start:end])
        a._accumulate(buf)

    out.grad_fn = grad_fn
    return out


def segment_softmax(a: Tensor, segments: Segments) -> Tensor:
    """Softmax within each segment of a 1 x N row, stabilized by max subtraction."""
    if a.data.ndim != 2 or a.data.shape[0] != 1:
        raise ShapeMismatch(f"segment_softmax: expected a 1 x N row, got {a.data.shape}")
    segments.require_total(a.data.shape[1], "segment_softmax")
    starts, sizes = segments.starts, segments.sizes
    x = a.data[0]
    e = np.exp(x - np.repeat(np.maximum.reduceat(x, starts), sizes))
    y = e / np.repeat(np.add.reduceat(e, starts), sizes)
    out = Tensor(y[None, :], (a,), op="segment_softmax")

    def grad_fn(g: np.ndarray) -> None:
        dot = np.repeat(np.add.reduceat(g[0] * y, starts), sizes)
        a._accumulate((y * (g[0] - dot))[None, :])

    out.grad_fn = grad_fn
    return out


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
