"""Autograd graphs are freed by reference counting, not by the cyclic GC.

Backward closures return their partials instead of storing them on their
own output tensor, so no node of a graph references itself.  Dropping the
root must release every interior output (and its data) immediately, with
the cyclic garbage collector switched off, while a graph the caller still
holds stays usable for another ``backward``.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    concatenate,
    conv2d,
    max_pool2d,
    stack,
)


def _leaves():
    rng = np.random.default_rng(0)
    return (Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True),
            Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True))


#: One op of each kind: binary, unary, ``apply``, convolution, both
#: poolings, and the two multi-input ops.
OPS = {
    "binary": lambda x, w: x * x,
    "unary": lambda x, w: x.relu(),
    "apply": lambda x, w: x.apply(lambda a: 2.0 * a, lambda g, a, o: 2.0 * g),
    "conv2d": lambda x, w: conv2d(x, w, padding=1),
    "max_pool2d": lambda x, w: max_pool2d(x),
    "avg_pool2d": lambda x, w: avg_pool2d(x),
    "concatenate": lambda x, w: concatenate([x, x * 2.0], axis=1),
    "stack": lambda x, w: stack([x, x.relu()], axis=0),
}


@contextlib.contextmanager
def cyclic_gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("op", sorted(OPS))
def test_dropping_the_root_frees_the_graph_without_gc(op):
    x, w = _leaves()
    with cyclic_gc_off():
        interior = OPS[op](x, w)
        data = weakref.ref(interior.data)
        root = (interior * interior).sum()
        del interior
        root.backward()
        assert data() is not None  # the held root keeps the graph alive
        del root
        assert data() is None, f"{op}: interior output outlived its graph"
        assert gc.collect() == 0, f"{op}: graph left reference cycles behind"
    assert x.grad is not None


@pytest.mark.parametrize("op", sorted(OPS))
def test_a_held_graph_can_backpropagate_twice(op):
    x, w = _leaves()
    root = (OPS[op](x, w) * 3.0).sum()
    root.backward()
    once = {id(leaf): leaf.grad.copy() for leaf in (x, w) if leaf.grad is not None}
    root.backward()
    assert once
    for leaf in (x, w):
        if leaf.grad is not None:
            np.testing.assert_array_equal(leaf.grad, 2.0 * once[id(leaf)])
