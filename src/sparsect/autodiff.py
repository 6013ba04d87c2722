"""Minimal reverse-mode differentiation over float64 numpy arrays.

A Tape records nodes in creation order (already topological); backward walks
the list once in reverse accumulating vector-Jacobian products, and releases
each non-leaf node's gradient and vjp closures as soon as they have been used,
so only leaves (parameters and inputs) end with a gradient. Only nodes
on a gradient path are recorded; any other node keeps its value but not its
parents or vjp closures, so a graph of constants records nothing. Exactly the
primitives the reconstruction network composes are provided: 3x3 stride-1
convolution, 2x2 stride-2 down/up convolution, leaky ReLU, channel concat,
elementwise arithmetic, reductions, and a wrapper that treats any linear
operator with `apply`/`applyT` as a differentiable node.

Single-writer per tape; one backward per tape (a second call raises, there
is no higher-order gradient support), after which the tape drops its nodes.
Everything is float64.
"""

from __future__ import annotations

import numpy as np


class TapeError(RuntimeError):
    pass


class TensorNode:
    __slots__ = ("tape", "value", "grad", "parents", "requires_grad")

    def __init__(self, tape, value, parents=(), requires_grad=False):
        self.tape = tape
        self.value = value
        self.grad = None
        self.parents = parents
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    # arithmetic sugar; scalars broadcast, arrays must match shapes
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


class Tape:
    """Ordered record of one forward pass."""

    def __init__(self):
        self.nodes: list[TensorNode] = []
        self.consumed = False

    def _record(self, value, parents, requires_grad):
        if self.consumed:
            raise TapeError("tape already consumed by backward; build a new one")
        value = np.asarray(value, dtype=np.float64)
        if not requires_grad:
            return TensorNode(self, value)
        node = TensorNode(self, value, parents, True)
        self.nodes.append(node)
        return node

    def leaf(self, value, requires_grad=True) -> TensorNode:
        return self._record(value, (), requires_grad)

    def constant(self, value) -> TensorNode:
        return self._record(value, (), False)


def _wrap(tape, other, like):
    if isinstance(other, TensorNode):
        if other.tape is not tape:
            raise TapeError("operands belong to different tapes")
        if other.value.shape != like.shape:
            raise ValueError(
                f"shape mismatch {other.value.shape} vs {like.shape}"
            )
        return other
    return None  # scalar


def _unary(x, value, vjp):
    return x.tape._record(value, ((x, vjp),), x.requires_grad)


def _binary(a, b, value, vjp_a, vjp_b):
    return a.tape._record(
        value, ((a, vjp_a), (b, vjp_b)), a.requires_grad or b.requires_grad
    )


def add(a, b):
    bb = _wrap(a.tape, b, a.value)
    if bb is None:
        return _unary(a, a.value + b, lambda g: g)
    return _binary(a, bb, a.value + bb.value, lambda g: g, lambda g: g)


def sub(a, b):
    bb = _wrap(a.tape, b, a.value)
    if bb is None:
        return _unary(a, a.value - b, lambda g: g)
    return _binary(a, bb, a.value - bb.value, lambda g: g, lambda g: -g)


def neg(a):
    return _unary(a, -a.value, lambda g: -g)


def mul(a, b):
    bb = _wrap(a.tape, b, a.value)
    if bb is None:
        return _unary(a, a.value * b, lambda g: g * b)
    return _binary(
        a, bb, a.value * bb.value,
        lambda g: g * bb.value, lambda g: g * a.value,
    )


def div(a, b):
    bb = _wrap(a.tape, b, a.value)
    if bb is None:
        return _unary(a, a.value / b, lambda g: g / b)
    val = a.value / bb.value
    return _binary(
        a, bb, val,
        lambda g: g / bb.value,
        lambda g: -g * a.value / (bb.value * bb.value),
    )


def abs_(x):
    # subgradient 0 at ties
    return _unary(x, np.abs(x.value), lambda g: g * np.sign(x.value))


def mean_(x):
    n = x.value.size
    return _unary(x, x.value.mean(),
                  lambda g: np.full(x.value.shape, float(g) / n))


def sum_(x):
    return _unary(x, x.value.sum(),
                  lambda g: np.full(x.value.shape, float(g)))


def leaky_relu(x, slope=0.01):
    """max(x, slope * x), which is x where x >= 0 and slope * x elsewhere
    for a slope in [0, 1]; ties take the positive branch. The node keeps no
    mask: its vjp rebuilds it from x. At slope 0 an input of +inf gives NaN
    (inf * 0), not inf."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must lie in [0, 1], got {slope}")
    xv = x.value
    value = xv * slope
    np.maximum(xv, value, out=value)

    def vjp(g):
        dx = g * slope
        np.copyto(dx, g, where=xv >= 0.0)
        return dx

    return _unary(x, value, vjp)


def reshape(x, shape):
    old = x.value.shape
    return _unary(x, x.value.reshape(shape), lambda g: g.reshape(old))


def concat_channels(parts):
    if not parts:
        raise ValueError("nothing to concatenate")
    tape = parts[0].tape
    sizes = []
    for p in parts:
        if p.tape is not tape:
            raise TapeError("operands belong to different tapes")
        sizes.append(p.value.shape[0])
    offs = np.concatenate(([0], np.cumsum(sizes)))

    def slice_vjp(i):
        return lambda g: g[offs[i]: offs[i + 1]]

    value = np.concatenate([p.value for p in parts], axis=0)
    parents = tuple((p, slice_vjp(i)) for i, p in enumerate(parts))
    rg = any(p.requires_grad for p in parts)
    return tape._record(value, parents, rg)


def linear_op(x, op, value=None):
    """Node for any linear operator exposing apply/applyT.

    `value`, if given, is op.apply(x.value) as the caller already holds it.
    """
    if value is None:
        value = op.apply(x.value)
    return _unary(x, value, lambda g: op.applyT(g))


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------

# Bytes of one row band of the im2col matrix that `_im2col_bands` builds. A
# conv whose whole matrix fits makes one band and one GEMM. A larger one
# (64 channels at 128x128 is 72 MiB, in 10 bands of 14 rows) holds one band
# at a time, plus that band's padded rows while it is built (7.9 + 1.0 MiB
# there), and never a padded copy of its whole input, recorded or not: the
# weight gradient rebuilds each band from the input.
_BAND_BYTES = 8 * 2**20


def _im2col_bands(x):
    """The im2col matrix of x:(C,H,W) for a 3x3 stride-1 zero-padded conv,
    in row bands of at most `_BAND_BYTES`.

    Yields (start, cols) in row order: cols:(C*9, n) is a fresh copy holding
    the patches of output pixels start .. start + n in row-major order. No
    padded copy of x is made: each band zero-pads only its own rows and a
    one-row halo above and below, which holds the neighbour rows of x, or
    zeros at the top and bottom edges. The padded rows are dropped before
    the band is yielded, and the band once the generator resumes, so a
    consumer that drops its own reference first holds one band at a time.
    """
    c, h, wd = x.shape
    step = max(1, _BAND_BYTES // (c * 9 * wd * 8))
    for r in range(0, h, step):
        n = min(step, h - r)
        lo, hi = max(r - 1, 0), min(r + n + 1, h)
        # row k of xp is row r - 1 + k of x
        xp = np.zeros((c, n + 2, wd + 2))
        xp[:, lo - r + 1: hi - r + 1, 1:-1] = x[:, lo:hi]
        # win[ci, di, dj, i, j] = xp[ci, i + di, j + dj]: the patches as a view
        sc, sh, sw = xp.strides
        win = np.ndarray((c, 3, 3, n, wd), xp.dtype, xp, 0, (sc, sh, sw, sh, sw))
        cols = win.reshape(c * 9, -1)
        del xp, win
        yield r * wd, cols
        del cols


def _conv3x3_raw(x, w):
    """3x3 convolution of x:(C,H,W) by w:(O,C,3,3), one GEMM per im2col band.

    Each band is freed before the next is built.
    """
    c, h, wd = x.shape
    o = w.shape[0]
    wm = w.reshape(o, c * 9)
    out = np.empty((o, h, wd))
    flat = out.reshape(o, h * wd)
    for n, cols in _im2col_bands(x):
        np.matmul(wm, cols, out=flat[:, n: n + cols.shape[1]])
        del cols
    return out


def conv3x3(x, w, b):
    """3x3 convolution, stride 1, zero padding 1. x:(C,H,W) w:(O,C,3,3) b:(O,).

    The node keeps no im2col matrix: the weight gradient rebuilds it band by
    band from x and sums the bands' products in row order.
    """
    xv, wv, bv = x.value, w.value, b.value
    out = _conv3x3_raw(xv, wv)
    out += bv[:, None, None]
    o = wv.shape[0]

    def vjp_x(g):
        wflip = wv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv3x3_raw(np.ascontiguousarray(g), np.ascontiguousarray(wflip))

    def vjp_w(g):
        g = g.reshape(o, -1)
        dw = None
        for n, cols in _im2col_bands(xv):
            gb = g[:, n: n + cols.shape[1]]
            if dw is None:
                dw = gb @ cols.T
            else:
                dw += gb @ cols.T
            del cols
        return dw.reshape(wv.shape)

    def vjp_b(g):
        return g.sum(axis=(1, 2))

    rg = x.requires_grad or w.requires_grad or b.requires_grad
    return x.tape._record(out, ((x, vjp_x), (w, vjp_w), (b, vjp_b)), rg)


def conv2x2_down(x, w, b):
    """2x2 convolution with stride 2 (halves H and W; both must be even).

    x:(C,H,W) w:(O,C,2,2) b:(O,). Pad-to-even is the caller's policy.
    """
    xv, wv, bv = x.value, w.value, b.value
    c, h, wd = xv.shape
    if h % 2 or wd % 2:
        raise ValueError("conv2x2_down needs even spatial dims")
    h2, w2 = h // 2, wd // 2
    o = wv.shape[0]
    blocks = xv.reshape(c, h2, 2, w2, 2).transpose(0, 2, 4, 1, 3)
    out = np.tensordot(wv, blocks, axes=([1, 2, 3], [0, 1, 2]))
    out += bv[:, None, None]

    def vjp_x(g):
        t = np.tensordot(wv, g, axes=([0], [0]))  # (c,2,2,h2,w2)
        return t.transpose(0, 3, 1, 4, 2).reshape(c, h, wd)

    def vjp_w(g):
        return np.tensordot(g, blocks, axes=([1, 2], [3, 4]))

    def vjp_b(g):
        return g.sum(axis=(1, 2))

    rg = x.requires_grad or w.requires_grad or b.requires_grad
    return x.tape._record(out, ((x, vjp_x), (w, vjp_w), (b, vjp_b)), rg)


def tconv2x2_up(x, w, b):
    """2x2 transpose convolution with stride 2 (doubles H and W).

    x:(C,H,W) w:(C,O,2,2) b:(O,). With a shared zero-bias kernel this is the
    exact transpose of conv2x2_down.
    """
    xv, wv, bv = x.value, w.value, b.value
    c, h, wd = xv.shape
    o = wv.shape[1]
    t = np.tensordot(wv, xv, axes=([0], [0]))  # (o,2,2,h,wd)
    out = t.transpose(0, 3, 1, 4, 2).reshape(o, 2 * h, 2 * wd)
    out += bv[:, None, None]

    def _blocks(g):
        return g.reshape(o, h, 2, wd, 2).transpose(0, 2, 4, 1, 3)

    def vjp_x(g):
        return np.tensordot(wv, _blocks(g), axes=([1, 2, 3], [0, 1, 2]))

    def vjp_w(g):
        return np.tensordot(xv, _blocks(g), axes=([1, 2], [3, 4]))

    def vjp_b(g):
        return g.sum(axis=(1, 2))

    rg = x.requires_grad or w.requires_grad or b.requires_grad
    return x.tape._record(out, ((x, vjp_x), (w, vjp_w), (b, vjp_b)), rg)


def replicate_pad_br(x, pad_h, pad_w):
    """Replicate the last row/column pad_h/pad_w times. x:(C,H,W)."""
    xv = x.value
    c, h, wd = xv.shape
    out = np.empty((c, h + pad_h, wd + pad_w))
    out[:, :h, :wd] = xv
    out[:, :h, wd:] = xv[:, :, wd - 1: wd]
    out[:, h:] = out[:, h - 1: h]

    def vjp(g):
        dx = g[:, : h + pad_h, : wd].copy() if pad_w else g[:, : h + pad_h, :].copy()
        if pad_w:
            dx[:, :, wd - 1] += g[:, : h + pad_h, wd:].sum(axis=2)
        dx2 = dx[:, :h, :]
        if pad_h:
            dx2 = dx2.copy()
            dx2[:, h - 1, :] += dx[:, h:, :].sum(axis=1)
        return dx2

    return _unary(x, out, vjp)


def crop_br(x, height, width):
    """Keep the top-left (C, height, width) corner."""
    xv = x.value
    c, h, wd = xv.shape

    def vjp(g):
        out = np.zeros((c, h, wd))
        out[:, :height, :width] = g
        return out

    return _unary(x, xv[:, :height, :width], vjp)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(root: TensorNode):
    """Accumulate gradients of a scalar root into every contributing leaf.

    Walking the tape in reverse, each non-leaf node drops its gradient and
    its parents (with their vjp closures and whatever those hold) once its
    vjps have run, so memory falls as the walk goes. Leaves keep their
    gradients, and every node keeps its value.
    """
    tape = root.tape
    if tape.consumed:
        raise TapeError("tape already differentiated; build a fresh forward pass")
    if root.value.size != 1:
        raise TapeError("backward needs a scalar root")
    tape.consumed = True
    root.grad = np.ones_like(root.value)
    for node in reversed(tape.nodes):
        parents, g = node.parents, node.grad
        if not parents:
            continue  # a leaf keeps its gradient
        # Every consumer of this node comes later on the tape and has run, so
        # its gradient is complete; once its vjps run, nothing reads it again.
        node.parents, node.grad = (), None
        if g is None:
            continue
        for parent, vjp in parents:
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            if parent.grad is None:
                parent.grad = np.array(contrib, dtype=np.float64, copy=True)
            else:
                parent.grad += contrib
    # Nodes hold their tape, so the list is a reference cycle; drop it.
    tape.nodes.clear()
