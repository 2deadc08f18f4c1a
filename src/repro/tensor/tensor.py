"""The Tensor object and the backward tape."""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Tuple

import numpy as np

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (evaluation / inference paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A NumPy array plus (optionally) a node in the backward tape.

    Attributes
    ----------
    data:
        The float32 (or int for index tensors) payload.
    grad:
        Accumulated gradient after :meth:`backward`; same shape as data.
    requires_grad:
        Leaf flag; intermediate tensors inherit it from parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "name")

    def __init__(self, data, requires_grad: bool = False,
                 parents: Tuple["Tensor", ...] = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None,
                 name: str = ""):
        if isinstance(data, Tensor):
            raise TypeError("nested Tensor")
        self.data = np.asarray(data)
        if self.data.dtype == np.float64:
            self.data = self.data.astype(np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self.name = name

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add *g* into this tensor's gradient buffer.

        The first contribution is kept as is, not copied; later ones are
        added out of place.  A backward closure may hand the same array
        to several parents, so no gradient array is ever mutated.
        """
        if g.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} != data shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(np.float32, copy=False)
        else:
            self.grad = (self.grad + g).astype(np.float32, copy=False)

    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse sweep from this tensor.

        For scalars, *grad* defaults to 1.  Parents' ``grad`` buffers are
        accumulated (so shared sub-expressions sum correctly).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("non-scalar backward() needs an explicit "
                                   "gradient")
            grad = np.ones_like(self.data, dtype=np.float32)
        self.accumulate_grad(np.asarray(grad, dtype=np.float32))

        for node in reversed(self._topo_order()):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topo_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return order

    # ------------------------------------------------------------------
    # Operator sugar (delegates to repro.tensor.ops).
    def __add__(self, other):
        from repro.tensor import ops
        return ops.add(self, other)

    def __matmul__(self, other):
        from repro.tensor import ops
        return ops.matmul(self, other)

    def __mul__(self, scalar):
        from repro.tensor import ops
        return ops.mul_scalar(self, scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return (f"Tensor(shape={self.data.shape}, "
                f"requires_grad={self.requires_grad}{tag})")


def as_tensor(x) -> Tensor:
    """Coerce arrays/scalars to (non-grad) tensors."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))
