"""Tensor engine: values, gradients against finite differences, invariants."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gib.tensor as T
from gib.gradcheck import assert_gradients_match, max_relative_error
from gib.tensor import ShapeMismatch, Tensor


class TestForwardValues:
    def test_matmul_identity(self):
        out = Tensor([[1.0, 0.0], [0.0, 1.0]]) @ Tensor([[2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(out.data, [[2.0, 3.0], [4.0, 5.0]])

    def test_matmul_inner_product(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 2\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 2)))

    def test_relu_sign_cases(self):
        out = T.relu(Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_tanh_at_origin(self):
        assert T.tanh(Tensor([[0.0]])).data.item() == 0.0

    def test_log_domain_error(self):
        with pytest.raises(ValueError, match="positive"):
            T.log(Tensor([[0.0, 1.0]]))

    def test_frobenius_norm_3_4_5(self):
        assert float(T.frobenius_norm(Tensor([[3.0, 4.0]])).data) == 5.0

    def test_logsumexp_closed_form(self):
        assert float(T.logsumexp(Tensor([0.0, 0.0])).data) == pytest.approx(math.log(2), abs=1e-15)

    def test_mean(self):
        assert float(T.tmean(Tensor([1.0, 2.0, 3.0])).data) == 2.0

    def test_empty_reduction_rejected(self):
        with pytest.raises(ShapeMismatch, match="empty"):
            T.tsum(Tensor(np.zeros((0, 2))))

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_and_float_of_one_element(self, shape):
        t = Tensor(np.full(shape, 0.1))
        assert type(t.item()) is float and t.item() == 0.1 and float(t) == 0.1

    def test_item_of_many_elements_rejected(self):
        with pytest.raises(ShapeMismatch, match=r"\(1, 2\)"):
            Tensor(np.ones((1, 2))).item()


class TestRowSoftmax:
    def test_symmetry(self):
        out = T.row_softmax(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_closed_form(self):
        out = T.row_softmax(Tensor([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 6))
        base = T.row_softmax(Tensor(x)).data
        shifted = T.row_softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_rows_sum_to_one_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 50.0), size=(5, 7))
            y = T.row_softmax(Tensor(x)).data
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(y >= 0.0) and np.all(y <= 1.0)


class TestLogsumexpBounds:
    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(scale=rng.uniform(0.1, 100.0), size=rng.integers(1, 30))
            v = float(T.logsumexp(Tensor(x)).data)
            assert v >= x.max() - 1e-12
            assert v <= x.max() + math.log(x.size) + 1e-12


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0)
        (x * x).backward()
        assert x.grad.item() == 6.0

    def test_matmul_sum_gradient(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 1.0], [1.0, 1.0]])
        T.tsum(a @ b).backward()
        np.testing.assert_allclose(a.grad, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)

    def test_log_derivative(self):
        x = Tensor([[2.0]])
        T.tsum(T.log(x)).backward()
        assert x.grad.item() == pytest.approx(0.5, abs=1e-15)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeMismatch, match="scalar"):
            Tensor([[1.0, 2.0]]).backward()

    def test_backward_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 3))
        x = rng.normal(size=(3, 2))

        def run():
            wt, xt = Tensor(w.copy()), Tensor(x.copy())
            T.tsum(T.relu(wt @ xt)).backward()
            return wt.grad.copy(), xt.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([[1.0, 2.0]])
        y = x + x  # two paths to x
        T.tsum(y).backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])

    def test_second_backward_raises_by_op(self):
        x = Tensor([[1.0, -2.0]])
        loss = T.tsum(x * x)
        loss.backward()
        first = x.grad
        with pytest.raises(RuntimeError, match="'sum' node whose gradient an earlier"):
            loss.backward()
        assert x.grad is first

    def test_consumed_interior_node_in_a_new_loss_raises_before_any_gradient(self):
        x = Tensor([[1.0, -2.0]])
        h = T.tanh(x)
        T.tsum(h).backward()
        first = x.grad
        with pytest.raises(RuntimeError, match="'tanh' node"):
            T.tsum(h * 3.0 + x).backward()  # x is reached first on the way back
        assert x.grad is first

    def test_backward_consumes_the_tape_and_keeps_leaves_values_and_grads(self):
        x = Tensor([[1.0, -2.0]])
        h = x * x
        loss = T.tsum(h)
        loss.backward()
        assert loss.parents == () and h.parents == ()
        np.testing.assert_array_equal(h.data, [[1.0, 4.0]])
        np.testing.assert_array_equal(h.grad, [[1.0, 1.0]])
        # a loss built again over the same leaves differentiates as before
        T.tsum(x * x).backward()
        np.testing.assert_array_equal(x.grad, [[4.0, -8.0]])
        scalar = Tensor(2.0)
        scalar.backward()  # a leaf is never consumed
        scalar.backward()
        assert scalar.grad.item() == 1.0

    def test_tape_is_topologically_ordered(self):
        a, b = Tensor([[1.0]]), Tensor([[2.0]])
        loss = T.tsum((a + b) * (a * b))
        order = loss.tape()
        position = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for parent in node.parents:
                assert position[id(parent)] < position[id(node)]

    def test_every_reachable_tensor_gets_a_grad_of_matching_shape(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(3, 4)))
        x = Tensor(rng.normal(size=(4, 2)))
        loss = T.logsumexp(T.row_softmax(T.tanh(w @ x)))
        tape = loss.tape()  # backward() consumes the tape
        loss.backward()
        assert len(tape) == 6
        for node in tape:
            assert node.grad is not None
            assert node.grad.shape == node.data.shape


def _zero_fill_accumulate(self, g):
    """Reference gradient store: a fresh zero buffer per tensor, every
    gradient added into it."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def _same_bits(a, b) -> bool:
    """Bitwise equality of two float arrays, except the sign of zero (the
    zero buffer turns a first gradient of -0.0 into +0.0)."""
    a, b = np.asarray(a) + 0.0, np.asarray(b) + 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestConstants:
    def test_constants_get_no_grad_and_stay_off_the_tape(self):
        w = Tensor([[1.0, -2.0], [0.5, 3.0]])
        x = T.constant([[1.0, 2.0], [3.0, 4.0]])
        target = T.constant([[0.0, 1.0]])
        loss = T.tsum(T.tanh(x @ w) * (x - 1.0) - target)
        tape = loss.tape()  # backward() consumes the tape
        loss.backward()
        assert not x.requires_grad and w.requires_grad and loss.requires_grad
        assert x.grad is None and target.grad is None
        assert [node.op for node in tape] == ["leaf", "matmul", "tanh", "mul", "sub", "sum"]
        assert all(node.requires_grad for node in tape)
        assert not any(node is x or node is target for node in tape)
        assert w.grad.shape == w.data.shape

    def test_op_of_constants_is_a_constant(self):
        c = T.constant([[1.0, 2.0]]) * 3.0 + T.constant([[1.0, 1.0]])
        assert not c.requires_grad
        loss = T.tsum(c)
        assert loss.tape() == []
        loss.backward()  # nothing upstream needs a gradient
        assert c.grad is None

    def test_raw_operands_are_wrapped_as_constants(self):
        x = Tensor([[2.0]])
        y = x * np.array([[3.0]]) + 1.0
        assert [p.requires_grad for p in y.parents] == [True, False]
        assert not y.parents[0].parents[1].requires_grad

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        width=st.integers(1, 3),
        b_kind=st.sampled_from(["full", "row", "col", "one", "vector", "scalar"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_gradients_match_zero_filled_buffers(self, rows, cols, width, b_kind, seed):
        b_shape = {"full": (rows, cols), "row": (1, cols), "col": (rows, 1),
                   "one": (1, 1), "vector": (cols,), "scalar": ()}[b_kind]
        r = np.random.default_rng(seed)
        arrays = [r.normal(size=(rows, cols)), r.normal(size=b_shape),
                  r.normal(size=(cols, width))]
        data = r.normal(size=(rows, cols))

        def leaf_grads():
            x, b, w = (Tensor(a.copy()) for a in arrays)
            q, p = T.tanh(x), x * b  # x on two paths, b broadcast
            h = p + q  # p and q are handed the one gradient array of h
            m = T.concat([h * x - b, T.constant(data)], axis=1) @ T.concat([w, w], axis=0)
            # p's second consumer runs after h and before q on the way back
            loss = (T.tsum(q) + T.tsum(p * 2.0) + T.tsum(T.exp(0.1 * m) + T.relu(m))
                    + T.tmean(h * h))
            loss.backward()
            return [t.grad for t in (x, b, w)]

        shared = leaf_grads()
        accumulate = Tensor._accumulate
        Tensor._accumulate = _zero_fill_accumulate
        try:
            reference = leaf_grads()
        finally:
            Tensor._accumulate = accumulate
        for got, want in zip(shared, reference):
            assert _same_bits(got, want)

    def test_reuse_leaves_the_upstream_gradient_alone(self):
        x = Tensor([[1.0, -2.0]])
        doubled = x + x  # x's first gradient is doubled's own gradient array
        T.tsum(doubled * T.constant([[3.0, 5.0]])).backward()
        np.testing.assert_array_equal(doubled.grad, [[3.0, 5.0]])
        np.testing.assert_array_equal(x.grad, [[6.0, 10.0]])
        assert x.grad is not doubled.grad

        y = Tensor([[1.5, -0.5]])
        square = y * y
        T.tsum(square).backward()
        np.testing.assert_array_equal(square.grad, [[1.0, 1.0]])
        np.testing.assert_array_equal(y.grad, [[3.0, -1.0]])


_SEGMENTS = T.Segments([0, 2, 5])
_BLOCKS = [np.array([[0.5, 1.0], [1.0, 0.5]]), np.eye(3) + 0.25]

# every op of gib.tensor: (name, node from its input tensors, input shapes,
# lowest input value; log and row_l1_normalize need positive inputs)
TAPE_OPS = [
    ("add", T.add, [(3, 2), (1, 2)], -1.0),
    ("sub", T.sub, [(3, 2), (3, 2)], -1.0),
    ("mul", T.mul, [(3, 2), (3, 1)], -1.0),
    ("neg", T.neg, [(3, 2)], -1.0),
    ("relu", T.relu, [(3, 2)], -1.0),
    ("tanh", T.tanh, [(3, 2)], -1.0),
    ("exp", T.exp, [(3, 2)], -1.0),
    ("log", T.log, [(3, 2)], 0.5),
    ("matmul", T.matmul, [(3, 2), (2, 4)], -1.0),
    ("mlp", lambda x, w0, b0, w1, b1: T.mlp(x, [w0, w1], [b0, b1]),
     [(5, 2), (2, 3), (1, 3), (3, 1), (1, 1)], -1.0),
    ("transpose", T.transpose, [(3, 2)], -1.0),
    ("concat", lambda a, b: T.concat([a, b], axis=1), [(3, 2), (3, 1)], -1.0),
    ("index", lambda a: T.index(a, (np.array([0, 2]), slice(None))), [(3, 2)], -1.0),
    ("row_softmax", T.row_softmax, [(3, 2)], -1.0),
    ("row_l1_normalize", T.row_l1_normalize, [(3, 2)], 0.5),
    ("tsum", T.tsum, [(3, 2)], -1.0),
    ("tmean", T.tmean, [(3, 2)], -1.0),
    ("frobenius_norm", T.frobenius_norm, [(3, 2)], -1.0),
    ("logsumexp", T.logsumexp, [(3, 2)], -1.0),
    ("row_logsumexp", T.row_logsumexp, [(3, 2)], -1.0),
    ("row_norms", T.row_norms, [(3, 2)], -1.0),
    ("segment_matmul", lambda a: T.segment_matmul(_BLOCKS, a, _SEGMENTS), [(5, 2)], -1.0),
    ("segment_pool", lambda a: T.segment_pool(a, _SEGMENTS, mean=True), [(5, 2)], -1.0),
    ("segment_softmax", lambda a: T.segment_softmax(a, _SEGMENTS), [(1, 5)], -1.0),
]


class TestOffTapeNodesKeepNoBackward:
    """The constructor keeps an op's backward only on a node that needs a
    gradient, so a node off the tape holds no closure and no array the
    closure captured."""

    def test_every_op_is_listed(self):
        ops = {name for name, value in vars(T).items()
               if callable(value) and getattr(value, "__module__", None) == T.__name__
               and not name.startswith("_") and not isinstance(value, type)}
        assert ops - {"constant", "zero_grads"} == {name for name, *_ in TAPE_OPS}

    @pytest.mark.parametrize("op, shapes, low", [case[1:] for case in TAPE_OPS],
                             ids=[case[0] for case in TAPE_OPS])
    def test_constant_inputs_keep_none_and_live_ones_keep_their_gradients(self, op, shapes,
                                                                          low):
        r = np.random.default_rng(len(shapes))
        arrays = [r.uniform(low, 1.0, size=shape) for shape in shapes]
        node = op(*(T.constant(a) for a in arrays))
        assert node.grad_fn is None and not node.requires_grad
        weights = T.constant(r.normal(size=node.data.shape))

        def loss(inputs):
            return T.tsum(op(*inputs) * weights)

        every = [Tensor(a) for a in arrays]
        loss(every).backward()
        for live in range(len(arrays)):
            inputs = [T.constant(a) for a in arrays]
            inputs[live] = Tensor(arrays[live])
            node = op(*inputs)
            assert node.grad_fn is not None and node.requires_grad
            T.tsum(node * weights).backward()
            # the same bits as with every input live, and right
            assert inputs[live].grad.tobytes() == every[live].grad.tobytes()
            assert_gradients_match(
                lambda ts: loss([*inputs[:live], ts[0], *inputs[live + 1:]]), [arrays[live]]
            )


def _mlp_chain(x, weights, biases, last="identity"):
    """The oracle for T.mlp: per layer one matmul, one add where there is a
    bias, and tanh, or ``last`` after the last layer."""
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w
        if b is not None:
            h = h + b
        if i < len(weights) - 1:
            h = T.tanh(h)
        elif last == "relu":
            h = T.relu(h)
    return h


BLOCK = T.MLP_BLOCK_ROWS


class TestMlpNode:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.sampled_from((1, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5)),
        widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),  # input and hidden
        d_out=st.sampled_from((1, 2, 3)),
        last=st.sampled_from(("identity", "relu")),
        with_bias=st.booleans(),
        x_needs_grad=st.booleans(),
        x_reused=st.booleans(),
        signed_zeros=st.booleans(),  # entries in {-1, -0.0, 0.0, 1}: exact zeros everywhere
        seed=st.integers(0, 2**32 - 1),
    )
    # the attention scorer (no biases, a width-1 layer after tanh) and a GCN layer
    @example(rows=BLOCK + 1, widths=[3, 4], d_out=1, last="identity", with_bias=False,
             x_needs_grad=True, x_reused=True, signed_zeros=False, seed=0)
    @example(rows=3, widths=[3], d_out=2, last="relu", with_bias=False,
             x_needs_grad=True, x_reused=True, signed_zeros=True, seed=0)
    # one row whose upstream is a signed zero: the k = 1 product must give +0.0
    @example(rows=1, widths=[2, 3], d_out=1, last="identity", with_bias=True,
             x_needs_grad=True, x_reused=False, signed_zeros=True, seed=0)
    # the case study's head on more than two blocks, as in its outer step
    @example(rows=2 * BLOCK + 5, widths=[2, 64], d_out=1, last="identity", with_bias=True,
             x_needs_grad=True, x_reused=False, signed_zeros=True, seed=0)
    def test_bitwise_equal_to_primitive_chain(
        self, rows, widths, d_out, last, with_bias, x_needs_grad, x_reused, signed_zeros, seed
    ):
        r = np.random.default_rng(seed)

        def draw(*shape):
            if not signed_zeros:
                return r.normal(size=shape)
            v = r.integers(-1, 2, size=shape).astype(float)
            return np.where((v == 0.0) & (r.random(shape) < 0.5), -0.0, v)

        dims = widths + [d_out]
        xa = draw(rows, dims[0])
        was = [draw(a, b) for a, b in zip(dims, dims[1:])]
        bas = [draw(1, b) for b in dims[1:]]
        upstream, other = draw(rows, d_out), r.normal(size=xa.shape)

        def run(layer):
            x = Tensor(xa) if x_needs_grad else T.constant(xa)
            ws = [Tensor(a) for a in was]
            bs = [Tensor(a) if with_bias else None for a in bas]
            out = layer(x, ws, bs, last)
            loss = T.tsum(out * T.constant(upstream))
            if x_reused:
                loss = loss + T.tsum(T.tanh(x) * T.constant(other))
            loss.backward()
            return out, [out.data] + [t.grad for t in [x, *ws, *bs] if t is not None]

        out, got = run(T.mlp)
        assert out.op == "mlp"
        for g, w in zip(got, run(_mlp_chain)[1]):
            if w is None:
                assert g is None
            else:
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.integers(1, 5),
        d_in=st.integers(1, 4),
        d_out=st.integers(1, 4),
        last=st.sampled_from(("identity", "relu")),
        with_bias=st.booleans(),
        x_needs_grad=st.booleans(),
        x_reused=st.booleans(),
        integer_values=st.booleans(),  # small integers put pre-activations exactly at 0
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_layer_bitwise_equal_to_unfused_chain(
        self, rows, d_in, d_out, last, with_bias, x_needs_grad, x_reused, integer_values, seed
    ):
        # one affine layer, the case every GCN layer and output head runs
        r = np.random.default_rng(seed)

        def draw(*shape):
            return r.integers(-1, 2, size=shape).astype(float) if integer_values else r.normal(size=shape)

        xa, wa, ba = draw(rows, d_in), draw(d_in, d_out), draw(1, d_out)
        upstream, other = r.normal(size=(rows, d_out)), r.normal(size=(rows, d_in))

        def run(layer):
            x = Tensor(xa) if x_needs_grad else T.constant(xa)
            w, b = Tensor(wa), (Tensor(ba) if with_bias else None)
            out = layer(x, [w], [b], last)
            loss = T.tsum(out * T.constant(upstream))
            if x_reused:
                loss = loss + T.tsum(T.tanh(x) * T.constant(other))
            loss.backward()
            return [out.data] + [t.grad for t in (x, w, b) if t is not None]

        for got, want in zip(run(T.mlp), run(_mlp_chain)):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d_out,sliced", [(3, True), (1, False)])
    def test_bitwise_where_the_bias_sum_keeps_add_reduce(self, monkeypatch, d_out, sliced):
        # a column slice of concat's axis-1 gradient is not C-contiguous, and a
        # width-1 gradient is summed pairwise; either keeps np.add.reduce
        tops = []
        param_grads = T._affine_param_grads

        def spy(d, *args):
            tops.append((d.flags.c_contiguous, d.shape[1]))
            param_grads(d, *args)

        monkeypatch.setattr(T, "_affine_param_grads", spy)
        r = np.random.default_rng(32)
        rows = 2 * BLOCK + 5
        xa, pad = r.normal(size=(rows, 3)), r.normal(size=(rows, 2))
        was = [r.normal(size=(3, 4)), r.normal(size=(4, d_out))]
        bas = [r.normal(size=(1, 4)), r.normal(size=(1, d_out))]
        upstream = r.normal(size=(rows, d_out + 2 if sliced else d_out))

        def run(layer):
            ws, bs = [Tensor(a) for a in was], [Tensor(a) for a in bas]
            out = layer(T.constant(xa), ws, bs)
            wide = T.concat([T.constant(pad), out], axis=1) if sliced else out
            T.tsum(wide * T.constant(upstream)).backward()
            return [out.data] + [t.grad for t in ws + bs]

        got = run(T.mlp)
        assert tops[0] == (not sliced, d_out)  # the output layer's gradient
        for g, w in zip(got, run(_mlp_chain)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_one_tape_node(self):
        ws = [Tensor(np.ones((2, 4))), Tensor(np.ones((4, 1)))]
        bs = [Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 1)))]
        ops = [t.op for t in T.tsum(T.mlp(T.constant(np.ones((3, 2))), ws, bs)).tape()]
        assert ops == ["leaf"] * 4 + ["mlp", "sum"]

    @pytest.mark.parametrize("d_out", [1, 3])
    def test_backward_frees_the_hidden_activations(self, monkeypatch, d_out):
        # each tanh gradient is written into its hidden activation, which
        # goes with the node's closure once backward() has pushed it
        made = []

        def spy(*args):
            y = affine(*args)
            made.append(weakref.ref(y))
            return y

        affine = T._affine
        monkeypatch.setattr(T, "_affine", spy)
        rng = np.random.default_rng(5)
        ws = [Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(4, 3))),
              Tensor(rng.normal(size=(3, d_out)))]
        bs = [Tensor(rng.normal(size=(1, 4))), None, Tensor(rng.normal(size=(1, d_out)))]
        out = T.mlp(T.constant(rng.normal(size=(5, 2))), ws, bs)
        loss = T.tsum(out)
        assert all(ref() is not None for ref in made)
        loss.backward()
        assert [ref() is None for ref in made] == [True, True, False]
        assert made[-1]() is out.data

    def test_no_gradient_keeps_no_hidden_activation(self, monkeypatch):
        # with no input that needs a gradient the node keeps no closure, so
        # its hidden activation goes when it returns
        made = []

        def spy(*args):
            y = affine(*args)
            made.append(weakref.ref(y))
            return y

        affine = T._affine
        monkeypatch.setattr(T, "_affine", spy)
        rng = np.random.default_rng(6)
        ws = [T.constant(rng.normal(size=(2, 4))), T.constant(rng.normal(size=(4, 1)))]
        bs = [T.constant(rng.normal(size=(1, 4))), T.constant(rng.normal(size=(1, 1)))]
        out = T.mlp(T.constant(rng.normal(size=(5, 2))), ws, bs)
        assert out.grad_fn is None and not out.requires_grad
        assert [ref() is None for ref in made] == [True, False]
        assert made[-1]() is out.data

    @pytest.mark.parametrize("d_out", [1, 3])
    def test_gradients_against_finite_differences(self, monkeypatch, d_out):
        # two-row blocks, so that five rows take three blocks, the last one short
        monkeypatch.setattr(T, "MLP_BLOCK_ROWS", 2)
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = _rand(rng, 5, 3)
            params = [_rand(rng, 3, 4), _rand(rng, 1, 4), _rand(rng, 4, 1), _rand(rng, 1, 1),
                      _rand(rng, 1, d_out), _rand(rng, 1, d_out)]
            weights = T.constant(_rand(rng, 5, d_out))
            assert_gradients_match(
                lambda ts: T.tsum(T.mlp(ts[0], ts[1::2], ts[2::2]) * weights), [x] + params
            )

    def test_relu_at_zero_has_zero_subgradient(self):
        x = Tensor([[1.0, -1.0], [2.0, 1.0]])
        w = Tensor([[1.0], [1.0]])
        b = Tensor([[0.0]])
        out = T.mlp(x, [w], [b], "relu")  # first row's pre-activation is exactly 0
        T.tsum(out).backward()
        np.testing.assert_array_equal(out.data, [[0.0], [3.0]])
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(w.grad, [[2.0], [1.0]])
        np.testing.assert_array_equal(b.grad, [[1.0]])

    def test_width_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"mlp: input \(2, 3\).*\(2, 2\)"):
            T.mlp(Tensor(np.zeros((2, 3))), [Tensor(np.zeros((2, 2)))], [None])

    @pytest.mark.parametrize("bias_shape", [(3,), (2, 3), (1, 2)])
    def test_bias_must_be_one_row_of_output_width(self, bias_shape):
        with pytest.raises(ShapeMismatch, match=r"bias \(.*\(3, 3\)"):
            T.mlp(Tensor(np.zeros((2, 3))), [Tensor(np.zeros((3, 3)))],
                  [Tensor(np.zeros(bias_shape))])

    def test_unknown_activation_named(self):
        # tanh runs after hidden layers only
        for last in ("sigmoid", "tanh"):
            with pytest.raises(ValueError, match=f"mlp: unknown activation '{last}'"):
                T.mlp(Tensor(np.zeros((2, 3))), [Tensor(np.zeros((3, 3)))], [None], last)

    def test_layer_count_and_bias_shape_checked(self):
        w = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch, match="2 weights for 1 biases"):
            T.mlp(Tensor(np.zeros((1, 2))), [w, w], [Tensor(np.zeros((1, 3)))])
        with pytest.raises(ShapeMismatch, match=r"mlp: bias \(1, 2\)"):
            T.mlp(Tensor(np.zeros((1, 2))), [w], [Tensor(np.zeros((1, 2)))])


def _rand(rng, *shape):
    return rng.normal(size=shape)


class TestGradientsAgainstFiniteDifferences:
    """Central differences (step 1e-5) vs the tape, relative error <= 1e-4."""

    N_INSTANCES = 100

    def test_matmul(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N_INSTANCES):
            m, k, n = rng.integers(1, 5, size=3)
            assert_gradients_match(
                lambda ts: T.tsum(T.tanh(ts[0] @ ts[1])),
                [_rand(rng, m, k), _rand(rng, k, n)],
            )

    def test_elementwise_ops(self):
        rng = np.random.default_rng(11)
        builders = {
            "add": lambda ts: T.tsum(T.tanh(ts[0] + ts[1])),
            "sub": lambda ts: T.tsum(T.tanh(ts[0] - ts[1])),
            "mul": lambda ts: T.tsum(T.tanh(ts[0] * ts[1])),
            "neg": lambda ts: T.tsum(T.tanh(-ts[0] * ts[1])),
        }
        per = self.N_INSTANCES // len(builders) + 1
        for name, build in builders.items():
            for _ in range(per):
                shape = tuple(rng.integers(1, 5, size=2))
                assert_gradients_match(build, [_rand(rng, *shape), _rand(rng, *shape)])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N_INSTANCES):
            x = _rand(rng, 3, 4)
            x = np.where(np.abs(x) < 1e-3, x + 0.1, x)  # keep clear of the kink
            assert_gradients_match(lambda ts: T.tsum(T.relu(ts[0])), [x])

    @pytest.mark.parametrize("last", ["identity", "relu"])
    def test_mlp_last_activation(self, last):
        rng = np.random.default_rng(20)
        for _ in range(self.N_INSTANCES // 4):
            n, d_in, d_out = rng.integers(1, 5, size=3)
            x, w, b = _rand(rng, n, d_in), _rand(rng, d_in, d_out), _rand(rng, 1, d_out)
            if min(np.abs(x @ w).min(), np.abs(x @ w + b).min()) < 1e-3:
                continue  # keep relu's pre-activations clear of the kink
            weights = T.constant(_rand(rng, n, d_out))
            assert_gradients_match(
                lambda ts: T.tsum(T.mlp(ts[0], [ts[1]], [ts[2]], last) * weights), [x, w, b]
            )
            assert_gradients_match(
                lambda ts: T.tsum(T.mlp(ts[0], [ts[1]], [None], last) * weights), [x, w]
            )

    def test_exp_log(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N_INSTANCES):
            x = _rand(rng, 2, 3)
            p = np.abs(x) + 0.5
            assert_gradients_match(lambda ts: T.tsum(T.exp(ts[0])), [x])
            assert_gradients_match(lambda ts: T.tsum(T.log(ts[0])), [p])

    def test_row_softmax(self):
        rng = np.random.default_rng(14)
        for _ in range(self.N_INSTANCES):
            x = _rand(rng, 3, 5)
            w = _rand(rng, 3, 5)
            assert_gradients_match(lambda ts: T.tsum(ts[1] * T.row_softmax(ts[0])), [x, w])

    def test_row_l1_normalize(self):
        rng = np.random.default_rng(15)
        for _ in range(self.N_INSTANCES):
            x = np.abs(_rand(rng, 3, 4)) + 0.1
            w = _rand(rng, 3, 4)
            assert_gradients_match(
                lambda ts: T.tsum(ts[1] * T.row_l1_normalize(ts[0])), [x, w]
            )

    def test_reductions(self):
        rng = np.random.default_rng(16)
        builders = [
            lambda ts: T.tsum(ts[0]) * T.tmean(ts[0]),
            lambda ts: T.frobenius_norm(ts[0]),
            lambda ts: T.logsumexp(ts[0]),
        ]
        per = self.N_INSTANCES // len(builders) + 1
        for build in builders:
            for _ in range(per):
                assert_gradients_match(build, [_rand(rng, 3, 3) + 0.2])

    def test_structural_ops(self):
        rng = np.random.default_rng(17)
        for _ in range(self.N_INSTANCES // 2):
            a, b = _rand(rng, 2, 3), _rand(rng, 2, 3)
            assert_gradients_match(
                lambda ts: T.tsum(T.tanh(T.concat([ts[0], ts[1]], axis=1) @ Tensor(_fixed_w))),
                [a, b],
            )
            assert_gradients_match(lambda ts: T.tsum(T.tanh(T.transpose(ts[0]) @ ts[1])), [a, b])

    def test_broadcast_bias_add(self):
        rng = np.random.default_rng(18)
        for _ in range(self.N_INSTANCES // 2):
            x = _rand(rng, 4, 3)
            bias = _rand(rng, 1, 3)
            assert_gradients_match(lambda ts: T.tsum(T.tanh(ts[0] + ts[1])), [x, bias])

    def test_random_compositions(self):
        rng = np.random.default_rng(19)
        for _ in range(self.N_INSTANCES // 2):
            w1, w2 = _rand(rng, 3, 4), _rand(rng, 4, 2)
            x = _rand(rng, 2, 3)
            err = max_relative_error(
                lambda ts: T.logsumexp(T.row_softmax(T.tanh(ts[2] @ ts[0]) @ ts[1])),
                [w1, w2, x],
            )
            assert err <= 1e-4


_fixed_w = np.linspace(-1.0, 1.0, 6 * 2).reshape(6, 2)


# -- properties over random shapes: the column-folded row ops and broadcasting ----

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
# +-0.0, subnormals and values far enough apart to underflow exp are all drawn
ENTRIES = st.floats(-60.0, 60.0, allow_nan=False)
# wider rows than two columns: the folded sum may differ from numpy's pairwise
# one in the last bits, so value and gradient agree to this absolute tolerance
WIDE_ROW_TOL = 1e-14


def _axis_row_softmax(x, g):
    """row_softmax's value and gradient in the axis-1 reduction form."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=1, keepdims=True))


def _tape_row_softmax(x, g):
    leaf = Tensor(x)
    y = T.row_softmax(leaf)
    T.tsum(y * T.constant(g)).backward()
    return y.data, leaf.grad


def _broadcast_shape(which, rows, cols):
    return [(rows, cols), (1, cols), (rows, 1), (1, 1), (cols,), ()][which]


class TestRowOpProperties:
    @PROPERTY
    @given(data=st.data(), axis=st.integers(0, 1), other=st.integers(1, 4),
           live=st.lists(st.booleans(), min_size=1, max_size=4))
    def test_concat_is_np_concatenate_with_gradient_slices(self, data, axis, other, live):
        # constant parts (live False) get no gradient and shift the others' slices
        sizes = [data.draw(st.integers(1, 3)) for _ in live]
        arrays_ = [data.draw(arrays(np.float64, (m, other) if axis == 0 else (other, m),
                                    elements=ENTRIES)) for m in sizes]
        parts = [Tensor(a) if keep else T.constant(a) for a, keep in zip(arrays_, live)]
        out = T.concat(parts, axis=axis)
        assert out.data.tobytes() == np.concatenate(arrays_, axis=axis).tobytes()
        upstream = data.draw(arrays(np.float64, out.shape, elements=ENTRIES))
        T.tsum(out * T.constant(upstream)).backward()
        slices = np.split(upstream, np.cumsum(sizes)[:-1], axis=axis)
        for part, keep, want in zip(parts, live, slices):
            assert part.grad is None if not keep else part.grad.tobytes() == want.tobytes()

    def test_concat_rejects_parts_that_disagree_off_its_axis(self):
        rows, cols = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
        for parts, axis in (([rows, cols], 0), ([rows, cols], 1), ([Tensor(np.zeros(3))], 0),
                            ([], 1)):
            with pytest.raises(ShapeMismatch, match="concat"):
                T.concat(parts, axis=axis)
        assert T.concat([rows, cols.T], axis=1).shape == (2, 6)

    @PROPERTY
    @given(data=st.data(), rows=st.integers(1, 9))
    def test_row_softmax_bitwise_on_two_columns(self, data, rows):
        x = data.draw(arrays(np.float64, (rows, 2), elements=ENTRIES))
        g = data.draw(arrays(np.float64, (rows, 2), elements=ENTRIES))
        y, grad = _tape_row_softmax(x, g)
        y_old, grad_old = _axis_row_softmax(x, g)
        assert y.tobytes() == y_old.tobytes()
        assert grad.tobytes() == grad_old.tobytes()

    @PROPERTY
    @given(rows=st.integers(1, 6), cols=st.integers(1, 12), seed=SEEDS)
    def test_row_softmax_wide_rows_within_tolerance(self, rows, cols, seed):
        r = np.random.default_rng(seed)
        x, g = r.normal(scale=5.0, size=(rows, cols)), r.normal(size=(rows, cols))
        y, grad = _tape_row_softmax(x, g)
        y_old, grad_old = _axis_row_softmax(x, g)
        np.testing.assert_allclose(y, y_old, rtol=0, atol=WIDE_ROW_TOL)
        np.testing.assert_allclose(grad, grad_old, rtol=0, atol=WIDE_ROW_TOL)

    @PROPERTY
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 3))
    def test_row_l1_normalize_bitwise_masked_form(self, data, rows, cols):
        # zero rows (of +-0.0) are drawn often, so both paths run
        x = data.draw(arrays(np.float64, (rows, cols),
                             elements=st.sampled_from((0.0, -0.0, 0.5, 1e-300, 3.0, 40.0))))
        g = data.draw(arrays(np.float64, (rows, cols), elements=ENTRIES))
        leaf = Tensor(x)
        y = T.row_l1_normalize(leaf)
        T.tsum(y * T.constant(g)).backward()
        s = x.sum(axis=1, keepdims=True)
        safe = np.where(s != 0.0, s, 1.0)
        y_old = np.where(s != 0.0, x / safe, 0.0)
        dot = (g * y_old).sum(axis=1, keepdims=True)
        grad_old = np.where(s != 0.0, (g - dot) / safe, 0.0)
        assert y.data.tobytes() == y_old.tobytes()
        assert leaf.grad.tobytes() == grad_old.tobytes()

    @PROPERTY
    @given(rows=st.integers(1, 4), cols=st.integers(1, 5), seed=SEEDS)
    def test_row_normalizer_gradients(self, rows, cols, seed):
        r = np.random.default_rng(seed)
        x = r.normal(scale=2.0, size=(rows, cols))
        w = T.constant(r.normal(size=(rows, cols)))
        positive = np.abs(x) + 0.1
        assert max_relative_error(lambda ts: T.tsum(T.row_softmax(ts[0]) * w), [x]) <= 1e-5
        assert max_relative_error(lambda ts: T.tsum(T.row_l1_normalize(ts[0]) * w), [positive]) <= 1e-5
        assert max_relative_error(lambda ts: T.logsumexp(ts[0]), [x]) <= 1e-5

    @PROPERTY
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), left=st.integers(0, 5),
           right=st.integers(0, 5), seed=SEEDS)
    def test_broadcasting_add_mul_gradients(self, rows, cols, left, right, seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=_broadcast_shape(left, rows, cols))
        b = r.normal(size=_broadcast_shape(right, rows, cols))
        out_shape = np.broadcast_shapes(a.shape, b.shape)
        w = T.constant(r.normal(size=out_shape))
        for op, expected in ((T.add, a + b), (T.mul, a * b)):
            np.testing.assert_array_equal(op(Tensor(a), Tensor(b)).data, expected)
            build = lambda ts: T.tsum(T.tanh(op(ts[0], ts[1])) * w)
            assert max_relative_error(build, [a, b]) <= 1e-5

    @PROPERTY
    @given(shapes=st.tuples(st.integers(2, 4), st.integers(2, 4)).filter(lambda s: s[0] != s[1]))
    def test_non_broadcasting_shapes_rejected(self, shapes):
        with pytest.raises(ShapeMismatch, match="do not broadcast"):
            T.add(Tensor(np.zeros((shapes[0], 3))), Tensor(np.zeros((shapes[1], 3))))


class TestSegmentsChecked:
    """Segments are checked once, when built; the ops check only coverage."""

    @PROPERTY
    @given(offsets=st.lists(st.integers(-2, 8), min_size=0, max_size=5))
    def test_bad_offsets_rejected_when_built(self, offsets):
        valid = (len(offsets) >= 2 and offsets[0] == 0
                 and all(e > s for s, e in zip(offsets, offsets[1:])))
        if valid:
            segments = T.Segments(offsets)
            assert segments.spans == list(zip(offsets[:-1], offsets[1:]))
            assert segments.total == offsets[-1]
        else:
            with pytest.raises(ShapeMismatch, match="offsets"):
                T.Segments(offsets)

    @PROPERTY
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4), extra=st.integers(-2, 2))
    def test_ops_reject_segments_that_do_not_cover_the_input(self, sizes, extra):
        segments = T.Segments(np.cumsum([0] + sizes))
        n = sum(sizes) + extra
        if extra == 0 or n <= 0:
            return
        blocks = [np.eye(k) for k in sizes]
        with pytest.raises(ShapeMismatch, match="offsets cover"):
            T.segment_matmul(blocks, Tensor(np.zeros((n, 2))), segments)
        with pytest.raises(ShapeMismatch, match="offsets cover"):
            T.segment_softmax(Tensor(np.zeros((1, n))), segments)

    def test_misfit_block_raises_in_the_product(self):
        segments = T.Segments([0, 2, 5])
        x = Tensor(np.zeros((5, 2)))
        for blocks in ([np.eye(2), np.eye(2)], [np.eye(3), np.eye(3)], [np.eye(2)]):
            with pytest.raises(ValueError):
                T.segment_matmul(blocks, x, segments)


# -- selection by indexing against the products it replaced -------------------


def _select_draw(r, signed_zeros, *shape):
    """Small integers with exact zeros of both signs, or normal draws with
    some +0.0 entries."""
    if signed_zeros:
        v = r.integers(-2, 3, size=shape).astype(float)
        return np.where((v == 0.0) & (r.random(shape) < 0.5), -0.0, v)
    v = r.normal(size=shape)
    return np.where(r.random(shape) < 0.2, 0.0, v)


def _select_run(op, xa, upstream, reuse):
    """``op``'s value and the gradient its input gets from
    ``sum(op(x) * upstream)``, plus ``sum(tanh(x) * reuse)`` when ``reuse``
    is given (a second consumer of ``x``)."""
    x = Tensor(xa)
    out = op(x)
    loss = T.tsum(out * T.constant(upstream))
    if reuse is not None:
        loss = loss + T.tsum(T.tanh(x) * T.constant(reuse))
    loss.backward()
    return out.data, x.grad


def _pool_matrix(sizes, mean):
    """The B x N pool of consecutive segments, filled graph by graph."""
    segments = T.Segments(np.cumsum([0] + sizes))
    pool = np.zeros((len(sizes), segments.total))
    for b, (start, end) in enumerate(segments.spans):
        pool[b, start:end] = 1.0 / (end - start) if mean else 1.0
    return segments, pool


class TestSelectionIsIndexing:
    """T.index and T.segment_pool against the BLAS products they replaced:
    values and gradients bitwise but for the sign of zero, which BLAS turns
    to +0.0 (see the tensor module docstring). In-process comparisons, so
    they hold under any BLAS kernel."""

    @staticmethod
    def _assert_match(new, old, xa):
        (value, grad), (old_value, old_grad) = new, old
        assert _same_bits(value, old_value) and _same_bits(grad, old_grad)
        if not (np.signbit(xa) & (xa == 0.0)).any():  # no -0.0 to pick: bitwise
            assert value.tobytes() == old_value.tobytes()

    @PROPERTY
    @given(n=st.integers(1, 9), d=st.integers(1, 4), shift=st.integers(0, 8),
           signed_zeros=st.booleans(), reused=st.booleans(), seed=SEEDS)
    @example(n=1, d=1, shift=0, signed_zeros=True, reused=False, seed=0)
    def test_rows_against_identity_rows(self, n, d, shift, signed_zeros, reused, seed):
        # mi_batch_loss's mismatched rows: a cyclic shift of the rows
        r = np.random.default_rng(seed)
        idx = (np.arange(n) + shift) % n
        xa, upstream = _select_draw(r, signed_zeros, n, d), _select_draw(r, signed_zeros, n, d)
        reuse = r.normal(size=(n, d)) if reused else None
        new = _select_run(lambda x: T.index(x, idx), xa, upstream, reuse)
        old = _select_run(lambda x: T.constant(np.eye(n)[idx]) @ x, xa, upstream, reuse)
        self._assert_match(new, old, xa)

    @PROPERTY
    @given(n=st.integers(1, 9), k=st.integers(0, 1), signed_zeros=st.booleans(),
           reused=st.booleans(), seed=SEEDS)
    @example(n=1, k=1, signed_zeros=True, reused=True, seed=0)
    def test_column_against_side_vector(self, n, k, signed_zeros, reused, seed):
        # a column of the N x 2 assignment S
        r = np.random.default_rng(seed)
        side = np.eye(2)[:, k : k + 1]
        xa, upstream = _select_draw(r, signed_zeros, n, 2), _select_draw(r, signed_zeros, n, 1)
        reuse = r.normal(size=(n, 2)) if reused else None
        new = _select_run(lambda x: T.index(x, np.s_[:, k : k + 1]), xa, upstream, reuse)
        old = _select_run(lambda x: x @ T.constant(side), xa, upstream, reuse)
        self._assert_match(new, old, xa)

    @PROPERTY
    @given(labels=st.lists(st.integers(0, 3), min_size=1, max_size=6), classes=st.integers(1, 4),
           signed_zeros=st.booleans(), reused=st.booleans(), seed=SEEDS)
    @example(labels=[0], classes=1, signed_zeros=True, reused=False, seed=0)
    def test_label_pick_against_onehot_product(self, labels, classes, signed_zeros, reused,
                                               seed):
        # output_loss's label logit of each row
        r = np.random.default_rng(seed)
        labels = [c % classes for c in labels]
        b = len(labels)
        onehot = np.eye(classes)[labels]
        key = (np.arange(b)[:, None], np.array(labels)[:, None])
        xa = _select_draw(r, signed_zeros, b, classes)
        upstream = _select_draw(r, signed_zeros, b, 1)
        reuse = r.normal(size=(b, classes)) if reused else None
        new = _select_run(lambda x: T.index(x, key), xa, upstream, reuse)
        old = _select_run(lambda x: (x * T.constant(onehot)) @ T.constant(np.ones((classes, 1))),
                          xa, upstream, reuse)
        self._assert_match(new, old, xa)

    @PROPERTY
    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5), d=st.integers(1, 4),
           mean=st.booleans(), signed_zeros=st.booleans(), reused=st.booleans(), seed=SEEDS)
    @example(sizes=[1], d=1, mean=True, signed_zeros=True, reused=False, seed=0)
    @example(sizes=[1, 1, 3], d=2, mean=True, signed_zeros=False, reused=True, seed=1)
    def test_pool_against_dense_product(self, sizes, d, mean, signed_zeros, reused, seed):
        # GraphBatch.sum and .mean: one-graph batches and single-node graphs included
        r = np.random.default_rng(seed)
        segments, pool = _pool_matrix(sizes, mean)
        n = segments.total
        xa = _select_draw(r, signed_zeros, n, d)
        upstream = _select_draw(r, signed_zeros, len(sizes), d)
        reuse = r.normal(size=(n, d)) if reused else None
        new = _select_run(lambda x: T.segment_pool(x, segments, mean=mean),
                          xa, upstream, reuse)
        old = _select_run(lambda x: T.constant(pool) @ x, xa, upstream, reuse)
        assert new[0].tobytes() == old[0].tobytes()  # the forward is the same product
        assert _same_bits(new[1], old[1])

    def test_index_gradients_against_finite_differences(self):
        rng = np.random.default_rng(20)
        for key in (np.s_[:, 1:2], np.array([2, 0, 1]),
                    (np.arange(3)[:, None], np.array([[1], [0], [2]]))):
            x = _rand(rng, 3, 3)
            weights = Tensor(_rand(rng, *x[key].shape))
            assert_gradients_match(lambda ts: T.tsum(T.tanh(T.index(ts[0], key)) * weights), [x])

    @pytest.mark.parametrize("mean", [False, True])
    def test_pool_gradients_against_finite_differences(self, mean):
        rng = np.random.default_rng(21)
        segments = T.Segments([0, 2, 3, 6])
        weights = Tensor(_rand(rng, 3, 2))
        assert_gradients_match(
            lambda ts: T.tsum(T.tanh(T.segment_pool(ts[0], segments, mean=mean)) * weights),
            [_rand(rng, 6, 2)],
        )

    def test_index_rejects_a_repeated_entry(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="more than once"):
            T.index(x, np.array([0, 2, 0]))
        with pytest.raises(ValueError, match="more than once"):
            T.index(x, (np.array([[1], [1]]), np.array([[0], [0]])))
        assert T.index(x, np.array([2, 0, 1])).shape == (3, 2)

    def test_pool_rejects_segments_that_do_not_cover_the_input(self):
        segments = T.Segments([0, 2, 4])
        with pytest.raises(ShapeMismatch, match="offsets cover"):
            T.segment_pool(Tensor(np.zeros((3, 2))), segments)
