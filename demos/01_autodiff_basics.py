"""A walk through the tensor engine: forward values, backward gradients,
and the finite-difference cross-check that keeps the tape honest.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

import gib.tensor as T
from gib.gradcheck import max_relative_error
from gib.tensor import Tensor

print("== values ==")
a = Tensor([[1.0, 2.0], [3.0, 4.0]])
b = T.constant([[1.0, 1.0], [1.0, 1.0]])  # data: needs no gradient
product = a @ b
print("A @ ones =\n", product.data)

print("\n== gradients ==")
loss = T.tsum(product)
tape = loss.tape()  # backward() consumes the tape, so count it first
loss.backward()
print("d sum(A @ ones) / dA =\n", a.grad)  # each entry feeds two output cells
print("the constant gets no gradient:", b.grad, "; nodes on the tape:", len(tape))

x = Tensor(3.0)
(x * x).backward()
print("d x^2 / dx at x=3 ->", x.grad.item())

print("\n== softmax and logsumexp are stable by construction ==")
big = Tensor([[1000.0, 1000.0, 999.0]])
print("softmax of huge logits:", T.row_softmax(big).data)
print("logsumexp of huge logits:", float(T.logsumexp(big).data))

print("\n== the finite-difference cross-check ==")
rng = np.random.default_rng(0)
w1, w2 = rng.normal(size=(3, 8)), rng.normal(size=(8, 2))
inputs = rng.normal(size=(5, 3))


def two_layer_net(ts):
    hidden = T.tanh(T.constant(inputs) @ ts[0])
    return T.logsumexp(hidden @ ts[1])


err = max_relative_error(two_layer_net, [w1, w2])
print(f"tape vs central differences on a 2-layer net: relative error {err:.2e}")
assert err < 1e-4
print("the tape agrees with the independent numerical derivative.")
