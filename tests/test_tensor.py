"""Tensor engine: values, gradients against finite differences, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        loss.backward()
        for node in loss.tape():
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
        loss.backward()
        assert not x.requires_grad and w.requires_grad and loss.requires_grad
        assert x.grad is None and target.grad is None
        assert all(node.requires_grad for node in loss.tape())
        assert not any(node is x or node is target for node in loss.tape())
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
            m = T.concat_cols([h * x - b, T.constant(data)]) @ T.concat_rows([w, w])
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


def _unfused(x, w, b, activation):
    """The oracle for T.dense: the matmul, add and activation chain it replaces."""
    h = x @ w
    if b is not None:
        h = h + b
    return {"identity": lambda t: t, "relu": T.relu, "tanh": T.tanh}[activation](h)


class TestDense:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        rows=st.integers(1, 5),
        d_in=st.integers(1, 4),
        d_out=st.integers(1, 4),
        activation=st.sampled_from(("identity", "relu", "tanh")),
        with_bias=st.booleans(),
        x_needs_grad=st.booleans(),
        x_reused=st.booleans(),
        integer_values=st.booleans(),  # small integers put pre-activations exactly at 0
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_unfused_chain(
        self, rows, d_in, d_out, activation, with_bias, x_needs_grad, x_reused,
        integer_values, seed,
    ):
        r = np.random.default_rng(seed)

        def draw(*shape):
            return r.integers(-1, 2, size=shape).astype(float) if integer_values else r.normal(size=shape)

        xa, wa, ba = draw(rows, d_in), draw(d_in, d_out), draw(1, d_out)
        upstream, other = r.normal(size=(rows, d_out)), r.normal(size=(rows, d_in))

        def run(layer):
            x = Tensor(xa) if x_needs_grad else T.constant(xa)
            w, b = Tensor(wa), (Tensor(ba) if with_bias else None)
            out = layer(x, w, b, activation)
            loss = T.tsum(out * T.constant(upstream))
            if x_reused:
                loss = loss + T.tsum(T.tanh(x) * T.constant(other))
            loss.backward()
            return [out.data] + [t.grad for t in (x, w, b) if t is not None]

        for got, want in zip(run(T.dense), run(_unfused)):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_relu_at_zero_has_zero_subgradient(self):
        x = Tensor([[1.0, -1.0], [2.0, 1.0]])
        w = Tensor([[1.0], [1.0]])
        b = Tensor([[0.0]])
        out = T.dense(x, w, b, "relu")  # first row's pre-activation is exactly 0
        T.tsum(out).backward()
        np.testing.assert_array_equal(out.data, [[0.0], [3.0]])
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(w.grad, [[2.0], [1.0]])
        np.testing.assert_array_equal(b.grad, [[1.0]])

    def test_one_tape_node(self):
        x, w, b = T.constant(np.ones((3, 2))), Tensor(np.ones((2, 4))), Tensor(np.zeros((1, 4)))
        out = T.dense(x, w, b, "tanh")
        assert out.op == "dense"
        assert [t.op for t in T.tsum(out).tape()] == ["leaf", "leaf", "dense", "sum"]

    def test_width_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatch, match=r"\(2, 3\).*\(2, 2\)"):
            T.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))), None, "identity")

    @pytest.mark.parametrize("bias_shape", [(3,), (2, 3), (1, 2)])
    def test_bias_must_be_one_row_of_output_width(self, bias_shape):
        with pytest.raises(ShapeMismatch, match=r"bias \(.*\(3, 3\)"):
            T.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))),
                    Tensor(np.zeros(bias_shape)), "tanh")

    def test_unknown_activation_named(self):
        with pytest.raises(ValueError, match="'sigmoid'"):
            T.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), None, "sigmoid")


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

    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    def test_dense(self, activation):
        rng = np.random.default_rng(20)
        for _ in range(self.N_INSTANCES // 4):
            n, d_in, d_out = rng.integers(1, 5, size=3)
            x, w, b = _rand(rng, n, d_in), _rand(rng, d_in, d_out), _rand(rng, 1, d_out)
            if min(np.abs(x @ w).min(), np.abs(x @ w + b).min()) < 1e-3:
                continue  # keep relu's pre-activations clear of the kink
            weights = T.constant(_rand(rng, n, d_out))
            assert_gradients_match(
                lambda ts: T.tsum(T.dense(ts[0], ts[1], ts[2], activation) * weights), [x, w, b]
            )
            assert_gradients_match(
                lambda ts: T.tsum(T.dense(ts[0], ts[1], None, activation) * weights), [x, w]
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
                lambda ts: T.tsum(T.tanh(T.concat_cols([ts[0], ts[1]]) @ Tensor(_fixed_w))),
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
