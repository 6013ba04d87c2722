"""Learnable multigrid-style correction network.

A head conv lifts the stacked per-channel inputs to `width` features, a
recursive coarse-grid block adds corrections computed at halved resolutions
(a truncated-Neumann-series expansion of the error, one term per level), and
a tail conv maps back to one image channel. All activations are LeakyReLU.
Parameters live in plain name->array dicts so the optimizer and checkpoint
code can treat them uniformly.

The forward graph drops each activation once its last consumer has read
it. Without a gradient graph (constant parameters and input), nothing else
holds an activation, so it is freed there: the paper's network (width 32,
depth 5) peaks at about five full-resolution activations, at the fused
smoother's concatenation. On a tape, recorded nodes keep what backward
needs, as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import _check_count


@dataclass(frozen=True)
class CorrectionConfig:
    """Architecture knobs: feature width, recursion depth, stack channels."""

    width: int = 32
    depth: int = 5
    c_in: int = 8
    leaky_slope: float = 0.01

    def __post_init__(self):
        for name, least in (("width", 1), ("depth", 0), ("c_in", 1)):
            _check_count(name, getattr(self, name), least)
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError(f"leaky_slope must lie in [0, 1], got {self.leaky_slope}")


def param_count(width: int, depth: int, c_in: int = 8) -> int:
    """Closed-form parameter count of the correction network.

    Each level carries two 3x3 smoothing convs, a fused-input smoother, and
    the 2x2 down/up pair: 53*p^2 + 6*p. The deepest smoother adds
    18*p^2 + 2*p, the head 9*c_in*p + p, the tail 9*p + 1.
    """
    p = width
    per_level = 53 * p * p + 6 * p
    deepest = 18 * p * p + 2 * p
    head = 9 * c_in * p + p
    tail = 9 * p + 1
    return depth * per_level + deepest + head + tail


def _conv_shapes(cfg: CorrectionConfig) -> dict[str, tuple]:
    """Parameter name -> shape, in deterministic init/draw order."""
    p, n, c = cfg.width, cfg.depth, cfg.c_in
    shapes: dict[str, tuple] = {}
    shapes["cm.w"] = (p, c, 3, 3)
    shapes["cm.b"] = (p,)
    for i in range(1, n + 1):
        shapes[f"g{i}.c1.w"] = (p, p, 3, 3)
        shapes[f"g{i}.c1.b"] = (p,)
        shapes[f"g{i}.c2.w"] = (p, p, 3, 3)
        shapes[f"g{i}.c2.b"] = (p,)
        shapes[f"gt{i}.c1.w"] = (p, 2 * p, 3, 3)
        shapes[f"gt{i}.c1.b"] = (p,)
        shapes[f"gt{i}.c2.w"] = (p, p, 3, 3)
        shapes[f"gt{i}.c2.b"] = (p,)
        shapes[f"s{i}.w"] = (p, p, 2, 2)
        shapes[f"s{i}.b"] = (p,)
        shapes[f"st{i}.w"] = (p, p, 2, 2)
        shapes[f"st{i}.b"] = (p,)
    shapes[f"g{n + 1}.c1.w"] = (p, p, 3, 3)
    shapes[f"g{n + 1}.c1.b"] = (p,)
    shapes[f"g{n + 1}.c2.w"] = (p, p, 3, 3)
    shapes[f"g{n + 1}.c2.b"] = (p,)
    shapes["ca.w"] = (1, p, 3, 3)
    shapes["ca.b"] = (1,)
    return shapes


def init_params(cfg: CorrectionConfig, seed: int) -> dict[str, np.ndarray]:
    """Kaiming fan-in normal weights (leaky-ReLU gain), zero biases."""
    rng = np.random.default_rng(seed)
    gain = math.sqrt(2.0 / (1.0 + cfg.leaky_slope**2))
    params: dict[str, np.ndarray] = {}
    for name, shape in _conv_shapes(cfg).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = shape[1] * shape[2] * shape[3]
            params[name] = rng.normal(0.0, gain / math.sqrt(fan_in), shape)
    return params


def actual_param_count(params: dict[str, np.ndarray]) -> int:
    return sum(int(v.size) for v in params.values())


def wrap_params(tape: ad.Tape, params: dict[str, np.ndarray]):
    """One leaf node per array; reuse these across stages so grads sum."""
    return {name: tape.leaf(arr, requires_grad=True) for name, arr in params.items()}


# ---------------------------------------------------------------------------
# forward graph
# ---------------------------------------------------------------------------

def _conv_act(x, pnodes, name, slope):
    """LeakyReLU of the 3x3 conv `name` applied to x."""
    return ad.leaky_relu(
        ad.conv3x3(x, pnodes[f"{name}.w"], pnodes[f"{name}.b"]), slope
    )


def _smooth(x, pnodes, prefix, slope):
    """Two 3x3 convs with LeakyReLU after each. Rebinding `h` drops the first
    activation once the second conv has read it."""
    h = _conv_act(x, pnodes, f"{prefix}.c1", slope)
    h = ad.conv3x3(h, pnodes[f"{prefix}.c2.w"], pnodes[f"{prefix}.c2.b"])
    return ad.leaky_relu(h, slope)


def _coarse_block(level, feat, pnodes, cfg: CorrectionConfig):
    """Correction term at `level`; recurses one grid coarser until depth.

    Each activation is dropped once its last consumer has read it: the
    padded, downsampled and coarse-corrected grids after the up-conv, the
    two halves of the concatenation once it is built, and the concatenation
    once the fused smoother's first conv has read it. The fused smoother is
    written out rather than passed to `_smooth`, whose caller would hold
    the concatenation through both convs.
    """
    n, slope = cfg.depth, cfg.leaky_slope
    if level == n:
        return _smooth(feat, pnodes, f"g{n + 1}", slope)
    i = level + 1
    g = _smooth(feat, pnodes, f"g{i}", slope)
    _, h, w = g.value.shape
    pad_h, pad_w = h % 2, w % 2
    g_even = ad.replicate_pad_br(g, pad_h, pad_w) if pad_h or pad_w else g
    down = ad.conv2x2_down(g_even, pnodes[f"s{i}.w"], pnodes[f"s{i}.b"])
    mid = down + _coarse_block(level + 1, down, pnodes, cfg)
    up = ad.tconv2x2_up(mid, pnodes[f"st{i}.w"], pnodes[f"st{i}.b"])
    del g_even, down, mid
    if pad_h or pad_w:
        up = ad.crop_br(up, h, w)
    x = ad.concat_channels([g, up])
    del g, up
    x = _conv_act(x, pnodes, f"gt{i}.c1", slope)
    x = ad.conv3x3(x, pnodes[f"gt{i}.c2.w"], pnodes[f"gt{i}.c2.b"])
    return ad.leaky_relu(x, slope)


def apply_correction(stack, pnodes, cfg: CorrectionConfig):
    """Map a (c_in, H, W) stack node to a corrected (H, W) image node."""
    if stack.value.shape[0] != cfg.c_in:
        raise ValueError(
            f"stack has {stack.value.shape[0]} channels, config wants {cfg.c_in}"
        )
    slope = cfg.leaky_slope
    feat = _conv_act(stack, pnodes, "cm", slope)
    feat = feat + _coarse_block(0, feat, pnodes, cfg)
    img = _conv_act(feat, pnodes, "ca", slope)
    return ad.reshape(img, img.value.shape[1:])
