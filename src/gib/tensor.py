"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable quantity in this package is a :class:`Tensor` wrapping a
64-bit numpy array. Operations record their inputs and a local-gradient
closure on the fly (define-by-run), so each forward pass builds a fresh tape.
``Tensor.backward()`` replays the tape in reverse topological order,
accumulates exact chain-rule gradients into ``.grad`` and consumes the tape.

Design points:
  * float64 everywhere; gradient checks against central finite differences
    need the precision, and nothing here is large enough to want float32.
  * relu subgradient at exactly 0 is 0.
  * ``backward()`` consumes its tape, as reverse-mode engines do by default:
    once an op node's gradient is pushed, the node drops its closure and
    parent links, so the arrays the closure saved are freed during the pass,
    not when the last name for the loss goes. Leaves, node values and
    ``.grad`` arrays stay. A later ``backward()`` through a consumed node
    raises, naming its op, instead of returning partial gradients. This is
    what lets :func:`mlp` write each tanh gradient into the dead hidden
    activation.
  * Every affine stack is one node (:func:`mlp`): tanh after each hidden
    layer, identity or relu after the last, biases optional. A GCN layer is
    a one-layer stack. The node keeps only its output on the tape and is
    bitwise the same as the ``matmul``, ``add`` and activation chain.
  * The k = 1 rule: where a width-1 layer follows a tanh layer, its input
    gradient ``d @ w.T`` (N x 1 times 1 x h) is built as
    ``np.einsum("ik,kj->ij", d, w.T)``. BLAS starts each entry of a product
    from +0.0 and adds the k terms, so a k = 1 entry is ``0.0 + d_i * w_j``
    (-0.0 becomes +0.0). einsum without ``optimize`` calls no BLAS; it
    zero-fills its output and adds each product to it, so it computes that
    same sum and is bitwise the BLAS form. :func:`mlp` folds it into the
    tanh gradient over blocks of ``MLP_BLOCK_ROWS`` rows.
  * A bias gradient, the column sum of an N x h gradient ``d``, is
    ``np.einsum("ij->j", d)`` where ``d`` is C-contiguous and h > 1. It and
    ``np.add.reduce(d, axis=0)`` then both add whole rows in row order,
    without BLAS, so they agree bitwise. Any other ``d`` keeps
    ``np.add.reduce``: on a single column numpy sums pairwise, and einsum
    does not.
  * numpy's loops over a broadcast (stride-0) operand run slower than
    same-shape ones. That is why the k = 1 product and the column sum use
    einsum, and why :func:`mlp`'s forward adds a bias from a tile of bias
    rows, block by block. Each form is the only path at every row count,
    though on few rows it is slower than the broadcast: einsum by about
    1 us below 70 rows, the tile by 1-3 us below one block.
  * A product that only selects is an index. Where every entry of a product
    is one input entry times a constant 0, 1 or 1/n (a column of the
    assignment S, the mismatched rows of the DV bound, each graph's label
    logit), it is :func:`index`; where the backward of a pooling product is
    such a product, it is :func:`segment_pool`'s gather. Indexing computes
    the same values as BLAS but for the sign of a zero: BLAS starts each
    entry from +0.0, so it turns a -0.0 pick into +0.0, and indexing keeps
    -0.0. This cannot change an output. Every value picked in a forward is
    a softmax output (S's entries are > 0) or comes out of a BLAS product
    (pooled embeddings, logits), so it is never -0.0 and the forward is
    bitwise. In a gradient a zero entry may change sign; gradients are only
    added, multiplied and handed to the optimizer, and a zero of either
    sign leaves every sum with another term, and every parameter it
    updates, as it is.
  * Dense arrays only; the graphs handled here have tens of nodes.
  * Segment ops (one graph per range of rows) take :class:`Segments`, whose
    spans are checked once, when they are built (with a batch), not on
    every call. The segments also keep the pooling matrices
    :func:`segment_pool` multiplies by.
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
  * Each op hands its backward to the :class:`Tensor` constructor, which
    keeps it only on a node that needs one: a node off the tape keeps no
    backward, nor the arrays the backward captured.
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
        self.grad_fn = grad_fn if requires_grad else None  # none off the tape
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
        """Populate ``.grad`` of every tensor on this scalar loss's tape and
        consume the tape (see the module docstring). A tape through a node
        an earlier ``backward()`` consumed raises before any gradient is
        computed."""
        if self.data.size != 1:
            raise ShapeMismatch(
                f"backward() requires a scalar loss, got shape {self.data.shape}"
            )
        order = self.tape()
        for node in order:
            if node.grad_fn is _consumed:
                raise RuntimeError(
                    f"backward(): the tape runs through a {node.op!r} node whose "
                    "gradient an earlier backward() already pushed; build the loss again"
                )
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            grad_fn = node.grad_fn
            if grad_fn is not None:
                if node.grad is not None:
                    grad_fn(node.grad)
                node.grad_fn, node.parents = _consumed, ()

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


def _consumed(g: np.ndarray) -> None:
    """The ``grad_fn`` of a consumed op node; ``backward()`` never calls it."""
    raise RuntimeError("backward() through a consumed tape")


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

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, (a, b), grad_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "sub")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor(a.data - b.data, (a, b), grad_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a, b, "mul")

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(a.data * b.data, (a, b), grad_fn, "mul")


def neg(a: Tensor) -> Tensor:
    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(-g)

    return Tensor(-a.data, (a,), grad_fn, "neg")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # subgradient at 0 is 0

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * mask)

    return Tensor(np.maximum(a.data, 0.0), (a,), grad_fn, "relu")


def _tanh_grad(y: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(1 - y^2) * g written into ``out``, y being tanh's output; ``out`` may
    be ``y`` itself where nothing reads ``y`` afterwards."""
    np.multiply(y, y, out=out)
    np.subtract(1.0, out, out=out)
    out *= g
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(_tanh_grad(y, g, np.empty_like(y)))  # y is the live output

    return Tensor(y, (a,), grad_fn, "tanh")


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * y)

    return Tensor(y, (a,), grad_fn, "exp")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log: input must be strictly positive")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g / a.data)

    return Tensor(np.log(a.data), (a,), grad_fn, "log")


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

    def grad_fn(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(a.data @ b.data, (a, b), grad_fn, "matmul")


# Rows per block when a width-1 layer's input gradient is folded into the
# tanh gradient below it (_tanh_grad_k1) and when _affine adds a bias: each
# block's arrays stay in cache.
MLP_BLOCK_ROWS = 512


def _affine(x: np.ndarray, w: Tensor, b: Optional[Tensor], activation: str) -> np.ndarray:
    """``activation(x @ w + b)`` once the shapes are checked: the product goes
    into a fresh array and the bias and activation are applied to it in place."""
    if x.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.data.shape[0]:
        raise ShapeMismatch(f"mlp: input {x.shape} does not fit weight {w.data.shape}")
    if b is not None and b.data.shape != (1, w.data.shape[1]):
        raise ShapeMismatch(
            f"mlp: bias {b.data.shape} does not fit weight {w.data.shape}, "
            f"expected (1, {w.data.shape[1]})"
        )
    y = x @ w.data
    if b is not None:
        # a same-shape add per block, not numpy's broadcast one (see the
        # module docstring)
        tile = np.repeat(b.data, min(y.shape[0], MLP_BLOCK_ROWS), axis=0)
        for start in range(0, y.shape[0], MLP_BLOCK_ROWS):
            block = y[start:start + MLP_BLOCK_ROWS]
            block += tile[:block.shape[0]]
    if activation == "tanh":
        np.tanh(y, out=y)
    elif activation == "relu":
        np.maximum(y, 0.0, out=y)
    return y


def _affine_param_grads(d: np.ndarray, x: np.ndarray, w: Tensor, b: Optional[Tensor]) -> None:
    """Accumulate the gradients of ``w`` and ``b`` in ``act(x @ w + b)`` from
    ``d``, the gradient of the pre-activation; ``x`` is the input array."""
    if b is not None and b.requires_grad:
        # _unbroadcast's column sum without its shape bookkeeping; a one-row d
        # passes as it is, as there (the einsum form: see the module docstring)
        if d.shape[0] == 1:
            b._accumulate(d)
        elif d.shape[1] > 1 and d.flags.c_contiguous:
            b._accumulate(np.einsum("ij->j", d)[None])
        else:
            b._accumulate(np.add.reduce(d, axis=0, keepdims=True))
    if w.requires_grad:
        w._accumulate(x.T @ d)


def _tanh_grad_k1(y: np.ndarray, d: np.ndarray, w_row: np.ndarray) -> np.ndarray:
    """``_tanh_grad(y, d @ w_row, y)`` for a one-column ``d``, by the k = 1
    rule (see the module docstring) and block by block: the N x h product
    never exists. Overwrites ``y`` and returns it."""
    for start in range(0, y.shape[0], MLP_BLOCK_ROWS):
        rows = slice(start, start + MLP_BLOCK_ROWS)
        o = y[rows]
        p = np.einsum("ik,kj->ij", d[rows], w_row)
        np.multiply(o, o, out=o)
        np.subtract(1.0, o, out=o)
        o *= p
    return y


def mlp(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Optional[Tensor]],
        last: str = "identity") -> Tensor:
    """A stack of affine layers as one node: tanh after every hidden layer,
    ``last`` (``"identity"`` or ``"relu"``) after the last; a bias is a
    1 x d_out row or ``None``.

    Only the output is kept on the tape. Value and gradients are bitwise
    those of the ``matmul``, ``add`` and activation chain: the backward runs
    the chain's numpy expressions in its order (relu's mask is read off the
    output, which is positive exactly where the pre-activation is), and a
    width-1 layer's input gradient after a hidden one is folded into the
    tanh gradient (:func:`_tanh_grad_k1`). Each tanh gradient is written
    into the hidden activation it is taken from, which nothing reads again.
    A node off the tape keeps no backward, so no hidden activation outlives it.
    """
    if last not in ("identity", "relu"):
        raise ValueError(f"mlp: unknown activation {last!r}")
    if not weights or len(weights) != len(biases):
        raise ShapeMismatch(f"mlp: {len(weights)} weights for {len(biases)} biases")
    top = len(weights) - 1
    acts = [x.data]  # the input of each layer, then the output
    for i, (w, b) in enumerate(zip(weights, biases)):
        acts.append(_affine(acts[i], w, b, "tanh" if i < top else last))

    def grad_fn(g: np.ndarray) -> None:
        d = g * (acts[-1] > 0.0) if last == "relu" else g  # subgradient at 0 is 0
        for i in range(top, -1, -1):
            w = weights[i]
            _affine_param_grads(d, acts[i], w, biases[i])
            if i == 0:
                if x.requires_grad:
                    x._accumulate(d @ w.data.T)
            elif w.data.shape[1] == 1:
                d = _tanh_grad_k1(acts[i], d, w.data.T)
            else:
                d = _tanh_grad(acts[i], d @ w.data.T, acts[i])

    return Tensor(acts[-1], (x, *weights, *(b for b in biases if b is not None)), grad_fn, "mlp")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose: expected a matrix, got {a.data.shape}")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g.T)

    return Tensor(a.data.T.copy(), (a,), grad_fn, "transpose")


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Join matrices along ``axis`` (0 stacks rows, 1 stacks columns); each
    part's gradient is its slice of the output's gradient."""
    parts = tuple(parts)
    if not parts:
        raise ShapeMismatch("concat: need at least one tensor")
    shapes = [p.data.shape for p in parts]
    if any(len(shape) != 2 or shape[1 - axis] != shapes[0][1 - axis] for shape in shapes):
        raise ShapeMismatch(f"concat: matrices that disagree off axis {axis}: {shapes}")
    sizes = [shape[axis] for shape in shapes]

    def grad_fn(g: np.ndarray) -> None:
        offset = 0
        for p, m in zip(parts, sizes):
            if p.requires_grad:
                p._accumulate(g[offset : offset + m] if axis == 0 else g[:, offset : offset + m])
            offset += m

    return Tensor(np.concatenate([p.data for p in parts], axis=axis), parts, grad_fn, "concat")


def index(a: Tensor, key) -> Tensor:
    """``a.data[key]`` as one node: a product that only selects (see the
    module docstring).

    ``key`` is made of ints, slices and integer arrays. The backward writes
    ``g`` into zeros at ``key``; it assigns, it does not add, so ``key`` must
    reach each entry of ``a`` at most once. Ints and slices always do; the
    integer arrays do when their index tuples, taken together, are
    distinct, which is checked here.
    """
    arrays = [k for k in (key if isinstance(key, tuple) else (key,)) if isinstance(k, np.ndarray)]
    if arrays:
        picks = list(zip(*(k.ravel().tolist() for k in np.broadcast_arrays(*arrays))))
        if len(set(picks)) != len(picks):
            raise ValueError("index: the key reaches an entry more than once")

    def grad_fn(g: np.ndarray) -> None:
        full = np.zeros(a.data.shape)
        full[key] = g
        a._accumulate(full)

    return Tensor(a.data[key], (a,), grad_fn, "index")


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

    def grad_fn(g: np.ndarray) -> None:
        # dL/dx = y * (g - sum_j g_j y_j) per row
        dot = _row_sum(g * y)
        a._accumulate(y * (g - dot))

    return Tensor(y, (a,), grad_fn, "row_softmax")


def row_l1_normalize(a: Tensor) -> Tensor:
    """Divide each row by its sum; an all-zero row stays an all-zero row.

    Intended for nonnegative matrices (row sums are taken verbatim, not as
    absolute values). The zero-row case carries zero gradient: the normalized
    zero row is treated as a constant.
    """
    if a.data.ndim != 2:
        raise ShapeMismatch(f"row_l1_normalize: expected a matrix, got {a.data.shape}")
    x = a.data
    # ndarray methods and ufunc calls, not their np.* wrappers: on the 1 x 2
    # inputs of the connectivity loss the wrappers cost more than the work
    if (x < 0.0).any():
        raise ValueError("row_l1_normalize: input must be nonnegative")
    s = np.add.reduce(x, axis=1, keepdims=True)
    nonzero = s != 0.0
    every_row = bool(nonzero.all())  # no zero row: the masks select everything
    safe = s if every_row else np.where(nonzero, s, 1.0)
    y = x / safe if every_row else np.where(nonzero, x / safe, 0.0)

    def grad_fn(g: np.ndarray) -> None:
        dot = np.add.reduce(g * y, axis=1, keepdims=True)
        d = (g - dot) / safe
        a._accumulate(d if every_row else np.where(nonzero, d, 0.0))

    return Tensor(y, (a,), grad_fn, "row_l1_normalize")


# -- reductions ----------------------------------------------------------------


def _require_nonempty(a: Tensor, op: str) -> None:
    if a.data.size == 0:
        raise ShapeMismatch(f"{op}: empty tensor")


def tsum(a: Tensor) -> Tensor:
    _require_nonempty(a, "sum")

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(np.full_like(a.data, float(g)))

    return Tensor(a.data.sum(), (a,), grad_fn, "sum")


def tmean(a: Tensor) -> Tensor:
    _require_nonempty(a, "mean")
    n = a.data.size
    # the sum and divide of ndarray.mean, without its Python wrapper

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(np.full_like(a.data, float(g) / n))

    return Tensor(np.add.reduce(a.data, axis=None) / n, (a,), grad_fn, "mean")


def frobenius_norm(a: Tensor) -> Tensor:
    """sqrt(sum of squares). Subgradient at the zero matrix is 0."""
    _require_nonempty(a, "frobenius_norm")
    value = float(np.sqrt((a.data * a.data).sum()))

    def grad_fn(g: np.ndarray) -> None:
        if value > 0.0:
            a._accumulate(float(g) * a.data / value)

    return Tensor(value, (a,), grad_fn, "frobenius_norm")


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(x))) over all entries, max-shifted for stability."""
    _require_nonempty(a, "logsumexp")
    m = a.data.max()
    e = np.exp(a.data - m)
    z = e.sum()
    soft = e / z

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(float(g) * soft)

    return Tensor(m + np.log(z), (a,), grad_fn, "logsumexp")


def row_logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(x))) of each row, as a column, max-shifted per row."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"row_logsumexp: expected a matrix, got {a.data.shape}")
    _require_nonempty(a, "row_logsumexp")
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    z = e.sum(axis=1, keepdims=True)
    soft = e / z

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(g * soft)

    return Tensor(m + np.log(z), (a,), grad_fn, "row_logsumexp")


def row_norms(a: Tensor) -> Tensor:
    """Euclidean norm of each row, as a column. Subgradient at a zero row is 0."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"row_norms: expected a matrix, got {a.data.shape}")
    norms = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    nonzero = norms > 0.0
    safe = np.where(nonzero, norms, 1.0)

    def grad_fn(g: np.ndarray) -> None:
        a._accumulate(np.where(nonzero, g * a.data / safe, 0.0))

    return Tensor(norms, (a,), grad_fn, "row_norms")


# -- segment ops: consecutive row ranges, one per graph ------------------------


class Segments:
    """Consecutive ranges of rows (or entries), one per graph, checked once.

    ``offsets`` must rise strictly from 0; segment b covers
    ``spans[b] = (offsets[b], offsets[b+1])`` and every segment is nonempty.
    The check runs here, when the segments are built (a :class:`GraphBatch`
    builds them with the batch), not in every segment op: an op only checks
    that the segments cover its input. They keep the read-only B x N pooling
    matrices: ``sum_pool`` is 1 where segment b owns entry i, else 0, and
    ``mean_pool`` is 1/n there (n the segment's size).
    """

    __slots__ = ("spans", "starts", "sizes", "total", "sum_pool", "mean_pool")

    def __init__(self, offsets: Sequence[int] | np.ndarray):
        bounds = np.asarray(offsets).tolist()
        if len(bounds) < 2 or bounds[0] != 0 or any(e <= s for s, e in zip(bounds, bounds[1:])):
            raise ShapeMismatch(f"segment offsets must rise strictly from 0, got {bounds}")
        self.spans = list(zip(bounds[:-1], bounds[1:]))
        self.starts = np.array(bounds[:-1])
        self.sizes = np.diff(bounds)
        self.total = bounds[-1]
        ids = np.repeat(np.arange(len(self.spans)), self.sizes)  # segment b owns entry i
        self.sum_pool = np.zeros((len(self.spans), self.total))
        self.sum_pool[ids, np.arange(self.total)] = 1.0
        self.mean_pool = self.sum_pool / self.sizes[:, None]
        self.sum_pool.flags.writeable = self.mean_pool.flags.writeable = False

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

    def grad_fn(g: np.ndarray) -> None:
        buf = np.empty(x.shape)
        for block, (start, end) in zip(blocks, spans):
            np.matmul(block.T, g[start:end], out=buf[start:end])
        a._accumulate(buf)

    return Tensor(y, (a,), grad_fn, "segment_matmul")


def segment_pool(a: Tensor, segments: Segments, mean: bool = False) -> Tensor:
    """Per-segment sums (or, with ``mean``, means) of the rows of ``a``, B x d.

    The forward is the BLAS product of the segments' ``sum_pool`` (or
    ``mean_pool``) and ``a``, whose multi-term sums keep their rounding. The
    backward is the gather ``g[ids]`` (``ids`` each row's segment), times 1/n
    for the mean: each entry of ``pool.T @ g`` is one row of ``g`` times one
    pool entry, so the gather is the value BLAS computes (see the module
    docstring). The segments are consecutive, so the gather is
    ``np.repeat``, which copies rows several times faster than indexing.
    """
    if a.data.ndim != 2:
        raise ShapeMismatch(f"segment_pool: expected a matrix, got {a.data.shape}")
    segments.require_total(a.data.shape[0], "segment_pool")
    pool = segments.mean_pool if mean else segments.sum_pool

    def grad_fn(g: np.ndarray) -> None:
        if mean:
            g = g * (1.0 / segments.sizes)[:, None]
        a._accumulate(np.repeat(g, segments.sizes, axis=0))

    return Tensor(pool @ a.data, (a,), grad_fn, "segment_pool")


def segment_softmax(a: Tensor, segments: Segments) -> Tensor:
    """Softmax within each segment of a 1 x N row, stabilized by max subtraction."""
    if a.data.ndim != 2 or a.data.shape[0] != 1:
        raise ShapeMismatch(f"segment_softmax: expected a 1 x N row, got {a.data.shape}")
    segments.require_total(a.data.shape[1], "segment_softmax")
    starts, sizes = segments.starts, segments.sizes
    x = a.data[0]
    e = np.exp(x - np.repeat(np.maximum.reduceat(x, starts), sizes))
    y = e / np.repeat(np.add.reduceat(e, starts), sizes)

    def grad_fn(g: np.ndarray) -> None:
        dot = np.repeat(np.add.reduceat(g[0] * y, starts), sizes)
        a._accumulate((y * (g[0] - dot))[None, :])

    return Tensor(y[None, :], (a,), grad_fn, "segment_softmax")


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
