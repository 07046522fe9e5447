"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly: each operation stores its input tensors and one
gradient function per input on its output. ``Tensor.backward`` walks the recorded
operations once in reverse topological order and *writes* each reachable
leaf's gradient into that leaf's own ``.grad`` (a leaf is a tensor created with
``requires_grad=True``), so repeated calls are idempotent (bit-identical
results) rather than accumulating. A leaf's gradient reads as zeros until a
backward writes it: the array is allocated on the first read of ``.grad``, so
a model that is only evaluated holds no gradient memory, and a parameter that
never joins a loss reads back as zero. Nothing rebinds a leaf's ``.data``
after construction or its ``.grad`` after that first read. ``Tensor(x,
requires_grad=True)`` copies ``x``, so in-place updates never reach the
caller's array; the library's own weights, drawn or zeroed in an array that
nothing else holds, are adopted instead (``Tensor._adopt``), so each exists
once. Intermediate gradients are dropped as soon as they have been passed
on, and op outputs and constants keep ``.grad`` at None.

An op hands ``_from_op`` each input paired with the function that maps the
output's gradient to that input's gradient. ``_from_op`` keeps the function
only for an input that needs a gradient, so a constant operand (class weights,
targets, pixels) costs no gradient work and no op checks ``requires_grad``
itself. The elementwise binary ops share one broadcasting op, ``_broadcast_op``.

All arithmetic is performed in float64. Nothing in this module owns global
random state; callers pass ``numpy.random.Generator`` objects where needed.
Graph construction is not thread-safe per tensor, but independent graphs on
separate threads do not interact.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "relu",
    "square",
    "sqrt",
    "exp",
    "log",
    "sigmoid",
    "matmul",
    "softmax",
    "log_softmax",
    "vector_norm",
    "NORM_EPS",
    "tensor_sum",
    "tensor_mean",
    "reshape",
    "transpose",
    "conv2d",
    "maxpool2d",
]

# Global switch consulted at op-recording time; see no_grad().
_GRAD_ENABLED = True

# vector_norm's guard, sqrt(sum(x^2) + NORM_EPS): a finite gradient at the zero vector.
NORM_EPS = 1e-12

# conv2d's patch-buffer budget, about one core's L2 cache: a block's gather is still
# in cache when its GEMM reads it.
_PATCH_BYTES = 2 << 20


@contextmanager
def no_grad():
    """Suspend graph recording; ops executed inside produce constant tensors."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense float64 array plus the bookkeeping for reverse-mode autodiff.

    A leaf built here copies the array it is given; ``_adopt`` builds one
    around an array the library has just made, without a copy.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_grad_fns")

    def __init__(self, data, requires_grad: bool = False):
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        if self.requires_grad:
            # A leaf is updated in place, so it copies rather than write into the caller's array.
            self.data = np.array(data, dtype=np.float64)
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fns: tuple[Callable[[np.ndarray], np.ndarray] | None, ...] = ()

    @classmethod
    def _adopt(cls, array: np.ndarray) -> Tensor:
        """A trainable leaf that takes ``array`` as its ``.data`` without a copy.

        For an array the library has just made and holds nowhere else. It must
        already be float64 and C-ordered, as a copying leaf's would be; under
        ``no_grad`` the leaf is a constant, as ``Tensor(x, requires_grad=True)`` is.
        """
        if array.dtype != np.float64 or not array.flags.c_contiguous:
            order = "C-ordered" if array.flags.c_contiguous else "not C-ordered"
            raise ContractError(f"a leaf adopts only a C-ordered float64 array, got {array.dtype}, {order}")
        leaf = cls(array)
        leaf.requires_grad = _GRAD_ENABLED
        return leaf

    @property
    def grad(self) -> np.ndarray | None:
        """A leaf's gradient array, zeros until a backward writes it; None on other tensors."""
        if self._grad is None and self.requires_grad and not self._parents:
            self._grad = np.zeros_like(self.data)
        return self._grad

    # ------------------------------------------------------------------ info
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.item())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------- operators
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    # -------------------------------------------------------------- backward
    def backward(self) -> None:
        """Write d(self)/d(leaf) into ``grad`` on every leaf ancestor that requires it.

        ``self`` must hold a single element. Each reached leaf's ``grad`` array
        is overwritten in place, not accumulated into, so running backward
        twice on the same graph yields bit-identical results. Op outputs get
        no ``grad``. Only the gradient functions ``_from_op`` recorded run, so
        an input that needs no gradient receives none.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._parents:
                for parent, grad_fn in zip(node._parents, node._grad_fns):
                    if grad_fn is None:
                        continue
                    pg = grad_fn(g)
                    held = grads.get(id(parent))
                    grads[id(parent)] = pg if held is None else held + pg
            elif node.requires_grad:
                np.copyto(node.grad, g)

    def _topological_order(self) -> list["Tensor"]:
        # Iterative post-order walk; parents land before their consumers.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order


# --------------------------------------------------------------------- plumbing
def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data: np.ndarray, *inputs: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """The output ``data`` of an op on ``inputs``, each an (input, grad_fn) pair.

    ``grad_fn(g)`` maps the output's gradient ``g`` to the input's gradient,
    shaped like the input. When grad mode is on and some input requires a
    gradient, the output records every input in ``_parents`` (constants too, in
    order) and, in the parallel ``_grad_fns``, each input's function, or None
    for an input that needs no gradient. Otherwise it records neither.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if data.dtype == np.float64 else data.astype(np.float64)
    out._grad = None
    out.requires_grad = _GRAD_ENABLED and any(t.requires_grad for t, _ in inputs)
    if out.requires_grad:
        out._parents = tuple(t for t, _ in inputs)
        out._grad_fns = tuple(None if not t.requires_grad else fn for t, fn in inputs)
    else:
        out._parents = out._grad_fns = ()
    return out


def _check_broadcast(op: str, sa: tuple, sb: tuple) -> None:
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise DimensionError(f"{op}: shapes {sa} and {sb} are not broadcastable") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient contributions over the axes numpy broadcasting stretched."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _integer(op: str, name: str, value) -> int:
    """``value`` as an int; a float, even 2.0, is refused rather than truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ContractError(f"{op}: {name} must be an integer, got {value!r}") from None


def _normalize_axis(axis: int, ndim: int, op: str) -> int:
    ax = axis + ndim if axis < 0 else axis
    if not 0 <= ax < ndim:
        raise DimensionError(f"{op}: axis {axis} out of range for rank {ndim}")
    return ax


def _reduced_axes(axis, ndim: int, op: str) -> tuple[int, ...]:
    """numpy's ``axis`` argument as normalised axes: None is every axis, () none."""
    if axis is None:
        return tuple(range(ndim))
    return tuple(_normalize_axis(ax, ndim, op) for ax in ((axis,) if isinstance(axis, int) else axis))


def _broadcast_op(op: str, fwd, a, b, grad_a, grad_b) -> Tensor:
    """``fwd(a, b)`` under numpy broadcasting; ``grad_a(g, a, b)`` and ``grad_b(g, a, b)``
    give each input's gradient, summed back to its shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(op, a.shape, b.shape)
    return _from_op(fwd(a.data, b.data),
                    (a, lambda g: _unbroadcast(grad_a(g, a.data, b.data), a.shape)),
                    (b, lambda g: _unbroadcast(grad_b(g, a.data, b.data), b.shape)))


# ------------------------------------------------------------------ elementwise
def add(a, b) -> Tensor:
    return _broadcast_op("add", np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _broadcast_op("sub", np.subtract, a, b, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _broadcast_op("mul", np.multiply, a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _broadcast_op("div", np.divide, a, b, lambda g, x, y: g / y,
                         lambda g, x, y: -g * x / (y * y))


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)
    return _from_op(a.data * s, (a, lambda g: g * s))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    return _relu_node(a, a.data * (a.data > 0))  # subgradient 0 at the kink


def _relu_node(a: Tensor, out: np.ndarray) -> Tensor:
    """The node of ``out = relu(a.data)``: ``out > 0`` exactly where ``a.data > 0``
    (NaN and -0.0 included), so the gradient ``g * (out > 0)`` needs no stored mask."""
    return _from_op(out, (a, lambda g: g * (out > 0)))


def square(a) -> Tensor:
    a = _as_tensor(a)
    return _from_op(a.data * a.data, (a, lambda g: g * (2.0 * a.data)))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)
    return _from_op(out, (a, lambda g: g / (2.0 * out)))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _from_op(out, (a, lambda g: g * out))


def log(a) -> Tensor:
    a = _as_tensor(a)
    return _from_op(np.log(a.data), (a, lambda g: g / a.data))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # Evaluate through exp(-|x|) so neither branch can overflow.
    t = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    return _from_op(out, (a, lambda g: g * out * (1.0 - out)))


# -------------------------------------------------------------------- contractions
def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul: operands must have rank >= 2, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions disagree for {a.shape} and {b.shape}"
        )
    _check_broadcast("matmul (batch dims)", a.shape[:-2], b.shape[:-2])
    return _from_op(np.matmul(a.data, b.data),
                    (a, lambda g: _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)),
                    (b, lambda g: _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)))


def softmax(a, axis: int) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted).

    Computed in place in the one array it returns: ``out = a - max``, then
    ``exp`` and the division by the sum write into ``out``. The ufuncs and
    the sum are those of ``e = exp(a - max); e / e.sum()``, so are the bits.
    """
    a = _as_tensor(a)
    ax = _normalize_axis(axis, a.ndim, "softmax")
    out = a.data - a.data.max(axis=ax, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)
    return _from_op(out, (a, lambda g: out * (g - (g * out).sum(axis=ax, keepdims=True))))


def log_softmax(a, axis: int) -> Tensor:
    """Log of softmax along ``axis``, fused so no probability underflows to log(0).

    ``out = a - max`` is the array returned; the log of the summed ``exp(out)``
    is subtracted from it in place.
    """
    a = _as_tensor(a)
    ax = _normalize_axis(axis, a.ndim, "log_softmax")
    out = a.data - a.data.max(axis=ax, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=ax, keepdims=True))
    return _from_op(out, (a, lambda g: g - np.exp(out) * g.sum(axis=ax, keepdims=True)))


def vector_norm(a) -> Tensor:
    """Euclidean norm over the last axis, guarded as sqrt(sum(x^2) + NORM_EPS).

    The sum of squares is computed in the one array returned, and the guard
    and ``sqrt`` are applied to it in place. A last axis of fewer than 8
    elements is summed as columns, ``x[..., 0]^2 + x[..., 1]^2 + ...`` left to
    right, one pass per column instead of one reduction per row. That is the
    order numpy's sum uses below 8 terms, so the bits are those of
    ``(x * x).sum(axis=-1)``, which longer axes still use.

    Where the sum of squares overflows (norms past ~1e154), that vector is
    divided by its largest magnitude m first: m * sqrt(sum((x/m)^2) + NORM_EPS/m^2).
    Other vectors use the plain formula.
    """
    a = _as_tensor(a)
    x = a.data
    d = x.shape[-1]
    with np.errstate(over="ignore"):
        if 0 < d < 8:
            out = np.multiply(x[..., 0], x[..., 0], out=np.empty(x.shape[:-1]))
            for i in range(1, d):
                out += x[..., i] * x[..., i]
        else:
            out = np.asarray((x * x).sum(axis=-1))
        out += NORM_EPS
        np.sqrt(out, out=out)
    big = np.isinf(out)
    if big.any():
        rows = x[big]
        m = np.abs(rows).max(axis=-1)
        out[big] = m * np.sqrt(np.square(rows / m[:, None]).sum(axis=-1) + NORM_EPS / m / m)
    return _from_op(out, (a, lambda g: (g / out)[..., None] * a.data))


# --------------------------------------------------------------------- reductions
def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _reduced_axes(axis, a.ndim, "sum")
    return _from_op(np.asarray(a.data.sum(axis=axes, keepdims=keepdims)),
                    (a, lambda g: np.broadcast_to(g if keepdims else np.expand_dims(g, axes), a.shape)))


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _reduced_axes(axis, a.ndim, "mean")
    count = math.prod(a.shape[ax] for ax in axes)
    return scale(tensor_sum(a, axis=axes, keepdims=keepdims), 1.0 / count)


# ------------------------------------------------------------------ shape movement
def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {old} as {tuple(shape)}") from None
    return _from_op(out, (a, lambda g: g.reshape(old)))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose: {axes} is not a permutation of rank {a.ndim}")
    inverse = tuple(np.argsort(axes))
    return _from_op(a.data.transpose(axes), (a, lambda g: g.transpose(inverse)))


# ------------------------------------------------------------------- convolution
def conv2d(x, w, bias=None, stride: int = 1, padding: int = 0, relu: bool = False) -> Tensor:
    """2-D cross-correlation of [B, C_in, H, W] with kernels [C_out, C_in, k, k],
    plus an optional per-channel ``bias`` [C_out], then ``relu`` if asked.

    The input is read channels-last, so each kernel row of a patch is one
    contiguous run of k*C_in values, and the patch matrix, in [k, k, C_in]
    column order, is gathered one block of images at a time into one reused
    buffer of at most ``_PATCH_BYTES`` (one image if a single image's patches
    are larger). Each block is one flat GEMM that reads the buffer while it is
    still in cache, and the bias is added to the block's output there. With
    ``relu`` the block's output is then multiplied in place by its mask
    ``> 0``, the ``relu`` op's ufunc, written into one reused boolean buffer,
    so the result is ``relu(conv2d(...))`` bit for bit, signed zeros and NaN
    included. So the op's extra memory is those buffers, not the whole batch's
    patch matrix nor a second output.
    BLAS may order a short product's sums otherwise than a long one's, so an
    image's output can differ in its last bits with the size of its block;
    the blocks follow from the shapes alone, so a batch's output does not vary.

    The kernel gradient gathers each block again, unless it is still in the
    buffer, and adds each image's ``cols_b.T @ g_b`` into one zeroed
    accumulator in batch order. That is the order of a sum over the batch axis
    of the per-image products, so the result does not depend on the block size.
    The input gradient adds ``g @ w[:, :, i, j]`` per kernel offset (i, j) in
    lexicographic order, as a patch scatter would. With ``relu`` the result is
    the ``relu`` op's own node over the conv node, and both hold the one
    rectified array, which the conv's gradient functions never read.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d: expected rank-4 tensors, got {x.shape} and {w.shape}")
    c_out, c_in, k, kw = w.shape
    if k != kw:
        raise DimensionError(f"conv2d: kernels must be square, got {w.shape}")
    if x.shape[1] != c_in:
        raise DimensionError(f"conv2d: input has {x.shape[1]} channels but kernel expects {c_in}")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise DimensionError(f"conv2d: bias must have shape ({c_out},), got {bias.shape}")
    s, p = _integer("conv2d", "stride", stride), _integer("conv2d", "padding", padding)
    if s < 1 or p < 0:
        raise ContractError(f"conv2d: need stride >= 1 and padding >= 0, got {stride}, {padding}")
    bsz, _, h, wd = x.shape
    hp, wp = h + 2 * p, wd + 2 * p
    if k > hp or k > wp:
        raise DimensionError(f"conv2d: kernel {k} exceeds padded input {hp}x{wp}")
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    # A copy only when x is not channels-last in memory already, as a conv's output is.
    xl = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1))  # [B, H, W, C_in]
    xp = np.pad(xl, ((0, 0), (p, p), (p, p), (0, 0))) if p else xl
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    patches = windows.transpose(0, 1, 2, 4, 5, 3)  # [B, ho, wo, k, k, C_in]
    n_rows, n_cols = ho * wo, k * k * c_in
    per_block = min(bsz, max(1, _PATCH_BYTES // (n_rows * n_cols * 8)))
    blocks = [slice(b, min(b + per_block, bsz)) for b in range(0, bsz, per_block)]
    cols_buf = np.empty((per_block, ho, wo, k, k, c_in))
    held = None  # the block whose patches are in cols_buf

    def gather(blk):
        nonlocal held
        cols = cols_buf[: blk.stop - blk.start]
        if held != blk:
            np.copyto(cols, patches[blk])
            held = blk
        return cols.reshape(-1, n_rows, n_cols)

    flat = w.data.transpose(0, 2, 3, 1).reshape(c_out, n_cols)  # [C_out, k*k*C_in]
    out = np.empty((bsz, n_rows, c_out))
    mask = np.empty((per_block, n_rows, c_out), dtype=bool) if relu else None
    for blk in blocks:
        out_blk = out[blk]
        np.matmul(gather(blk).reshape(-1, n_cols), flat.T, out=out_blk.reshape(-1, c_out))
        if bias is not None:
            out_blk += bias.data
        if relu:
            mask_blk = np.greater(out_blk, 0, out=mask[: blk.stop - blk.start])
            np.multiply(out_blk, mask_blk, out=out_blk)
    y = out.transpose(0, 2, 1).reshape(bsz, c_out, ho, wo)

    def rows(g):
        return g.reshape(bsz, c_out, n_rows).transpose(0, 2, 1)  # [B, ho*wo, C_out]

    def grad_x(g):
        if c_in > 1 and n_rows > 1:
            g2 = np.ascontiguousarray(rows(g)).reshape(bsz * n_rows, c_out)
            wk = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # [k, k, C_out, C_in]
            terms = (np.matmul(g2, wk[ij]) for ij in np.ndindex(k, k))
        else:
            # A one-row or one-column GEMM takes BLAS's matrix-vector path,
            # which sums in another order; keep the k*k-wide product.
            g_cols = np.matmul(rows(g), flat).reshape(bsz * n_rows, k * k, c_in)
            terms = (g_cols[:, n] for n in range(k * k))
        buf = np.zeros((bsz, hp, wp, c_in))
        for (i, j), term in zip(np.ndindex(k, k), terms):
            buf[:, i : i + s * ho : s, j : j + s * wo : s] += term.reshape(bsz, ho, wo, c_in)
        return np.ascontiguousarray(buf.transpose(0, 3, 1, 2))[:, :, p : p + h, p : p + wd]

    def grad_w(g):
        acc, prod, g_rows = np.zeros((n_cols, c_out)), np.empty((n_cols, c_out)), rows(g)
        for blk in blocks:
            for cols_b, g_b in zip(gather(blk), g_rows[blk]):
                acc += np.matmul(cols_b.T, g_b, out=prod)
        return acc.T.reshape(c_out, k, k, c_in).transpose(0, 3, 1, 2)

    inputs = [(x, grad_x), (w, grad_w)]
    if bias is not None:
        inputs.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    conv = _from_op(y, *inputs)
    return _relu_node(conv, y) if relu else conv


def maxpool2d(a, kernel: int) -> Tensor:
    """Non-overlapping max pooling with window == stride == ``kernel``.

    Spatial extents must divide evenly; ties route the gradient to the first
    maximal element, which keeps backward deterministic.
    """
    a = _as_tensor(a)
    if a.ndim != 4:
        raise DimensionError(f"maxpool2d: expected rank-4 input, got {a.shape}")
    k = _integer("maxpool2d", "kernel", kernel)
    bsz, ch, h, w = a.shape
    if k < 1 or h % k or w % k:
        raise DimensionError(
            f"maxpool2d: spatial extents {h}x{w} not divisible by window {k}"
        )
    ho, wo = h // k, w // k
    tiles = a.data.reshape(bsz, ch, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5)
    tiles = tiles.reshape(bsz, ch, ho, wo, k * k)
    idx = tiles.argmax(axis=-1)
    out = np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0]

    def grad_a(g):
        buf = np.zeros((bsz, ch, ho, wo, k * k))
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        gx = buf.reshape(bsz, ch, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5)
        return gx.reshape(bsz, ch, h, w)

    return _from_op(np.ascontiguousarray(out), (a, grad_a))
