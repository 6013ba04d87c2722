"""Projection-error channels computed per unfolding stage.

Every channel is an image built from linear tomographic operators, so the
whole stack is differentiable through `autodiff.linear_op`. Reconstruction
FBPs stand in for the projector transpose throughout (the exact adjoint
exists separately for gradients). Channel names, in stack order:

  x_prev    current image estimate entering the stage
  x_interp  FBP of the view-interpolated sparse sinogram (data only)
  e_interp  FBP residual between interpolated and reprojected full views
  e_full_x  full-view reprojection error of x
  e_full_r  full-view reprojection error of the refined estimate
  e_data    sparse-view data residual, fbp_s(y_s - P_s x)
  e_null    sparse-view reprojection error of x
  e_null_r  sparse-view reprojection error of the refined estimate

The refined estimate r = x + e_data - e_null telescopes to the sparse-view
FBP x0 = fbp_s(y_s) for any stage input x, so e_full_r and e_null_r are
measurement-only. The stage loop starts from x0, so its first stack
depends only on the measurement too: `build_context` computes it once, and
e_full_r and e_null_r are its e_full_x and e_null. Every later stage takes
them as constants. Wherever a stage projects onto the full views, P_s x is
read from the subset's rows of P_f x, which equal it bitwise (each view
applies the same table to the same turned image in both operators); its
node still has x as parent and P_s^T as vjp. Optional channel groups
("interp", "full", "data", "null") gate which are computed; x_prev is
always present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .fbp import FbpOperator, ViewUpsampler
from .geometry import (
    GeometryError,
    ScanGeometry,
    Sinogram,
    ViewSubset,
    full_subset,
)
from .projector import JosephProjector

CHANNEL_ORDER = (
    "x_prev", "x_interp", "e_interp", "e_full_x",
    "e_full_r", "e_data", "e_null", "e_null_r",
)

ALL_GROUPS = frozenset(("interp", "full", "data", "null"))

# Channel-group combinations studied by the input ablation; the key is the
# variant tag used on the command line.
VARIANTS = {
    "a": frozenset(),
    "b": frozenset(("interp",)),
    "c": frozenset(("interp", "full")),
    "d": frozenset(("interp", "full", "data")),
    "e": frozenset(("data",)),
    "f": frozenset(("data", "null")),
    "g": ALL_GROUPS,
}

_GROUP_WIDTH = {"interp": 2, "full": 2, "data": 1, "null": 2}


def stack_width(groups: frozenset[str]) -> int:
    return 1 + sum(_GROUP_WIDTH[g] for g in groups)


def variant_groups(variant: str) -> frozenset[str]:
    try:
        return VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; have a..g") from None


@dataclass(eq=False)
class OperatorBundle:
    """Sparse- and full-view operator handles for one view subset."""

    geom: ScanGeometry
    subset: ViewSubset
    proj_s: JosephProjector
    fbp_s: FbpOperator
    upsampler: ViewUpsampler
    proj_f: JosephProjector
    fbp_f: FbpOperator


def build_bundle(geom: ScanGeometry, subset: ViewSubset) -> OperatorBundle:
    """Assemble operators for a subset.

    Bundles over one geometry share their full-view tables through the
    projector's table store, wherever those tables are admitted.
    """
    fs = full_subset(geom)
    return OperatorBundle(
        geom=geom,
        subset=subset,
        proj_s=JosephProjector(geom, subset),
        fbp_s=FbpOperator(geom, subset),
        upsampler=ViewUpsampler(geom, subset),
        proj_f=JosephProjector(geom, fs),
        fbp_f=FbpOperator(geom, fs),
    )


@dataclass(eq=False)
class StageContext:
    """Measurement-dependent quantities shared by every stage.

    x0 is the sparse-view FBP of the data; x_interp is the FBP of the
    view-interpolated sinogram; e_full_r and e_null_r are the reprojection
    errors of x0. first_stack is the (c, H, W) stack of a stage whose input
    is x0, so the first stage of the loop makes no operator call; e_full_r
    and e_null_r are its e_full_x and e_null. All depend only on (y_s,
    geometry), so they are computed once per forward pass, not per stage.
    A field whose channel group is not enabled is None, and so is
    first_stack once the loop has taken it.
    """

    bundle: OperatorBundle
    y_s: np.ndarray
    x0: np.ndarray
    x_interp: np.ndarray | None
    e_full_r: np.ndarray | None
    e_null_r: np.ndarray | None
    first_stack: np.ndarray | None = None


def build_context(
    y: Sinogram,
    bundle: OperatorBundle,
    groups: frozenset[str] = ALL_GROUPS,
) -> StageContext:
    """Compute x0, the measurement-only channels the groups read, and the
    stack of the first stage, whose input is x0."""
    if not np.array_equal(y.subset.indices, bundle.subset.indices):
        raise GeometryError("sinogram subset does not match the operator bundle")
    x0 = bundle.fbp_s.apply(y.data)
    x_interp = None
    if "interp" in groups:
        x_interp = bundle.fbp_f.apply(bundle.upsampler.apply(y.data))
    ctx = StageContext(bundle, y.data, x0, x_interp, None, None)
    tape = ad.Tape()
    chans = _input_channels(tape.constant(x0), ctx, groups)
    if "full" in groups:
        ctx.e_full_r = chans["e_full_x"].value
    if "null" in groups:
        ctx.e_null_r = chans["e_null"].value
    chans.update(_context_channels(tape, ctx, groups))
    ctx.first_stack = np.stack([chans[n].value for n in CHANNEL_ORDER if n in chans])
    return ctx


def _input_channels(
    x: ad.TensorNode, ctx: StageContext, groups: frozenset[str]
) -> dict[str, ad.TensorNode]:
    """The channels that depend on the stage input x, as graph nodes."""
    b = ctx.bundle
    out: dict[str, ad.TensorNode] = {"x_prev": x}
    need_interp = "interp" in groups
    need_back = "null" in groups or "data" in groups

    # The ps_x node is recorded before the pf_x node: backward adds their
    # contributions to x's gradient in reverse tape order, so this order fixes
    # the rounding of that sum.
    ps_x = pf_x = None
    if need_interp or "full" in groups:
        pf = b.proj_f.apply(x.value)
        if need_back or need_interp:
            ps_x = ad.linear_op(x, b.proj_s, pf[b.subset.indices])
        pf_x = ad.linear_op(x, b.proj_f, pf)
    elif need_back:
        ps_x = ad.linear_op(x, b.proj_s)

    if need_back:
        back = ad.linear_op(ps_x, b.fbp_s)
    if need_interp:
        interp = ad.linear_op(ps_x, b.upsampler)
        out["e_interp"] = ad.linear_op(interp - pf_x, b.fbp_f)
    if "full" in groups:
        out["e_full_x"] = x - ad.linear_op(pf_x, b.fbp_f)
    if "data" in groups:
        out["e_data"] = x.tape.constant(ctx.x0) - back
    if "null" in groups:
        out["e_null"] = x - back
    return out


def _context_channels(
    tape: ad.Tape, ctx: StageContext, groups: frozenset[str]
) -> dict[str, ad.TensorNode]:
    """The measurement-only channels, as constants on the tape."""
    out = {}
    if "interp" in groups:
        out["x_interp"] = tape.constant(ctx.x_interp)
    if "full" in groups:
        out["e_full_r"] = tape.constant(ctx.e_full_r)
    if "null" in groups:
        out["e_null_r"] = tape.constant(ctx.e_null_r)
    return out


def stage_channels(
    x: ad.TensorNode, ctx: StageContext, groups: frozenset[str] = ALL_GROUPS
) -> dict[str, ad.TensorNode]:
    """Compute the enabled channels as graph nodes; x is the stage input."""
    out = _input_channels(x, ctx, groups)
    out.update(_context_channels(x.tape, ctx, groups))
    return out


def assemble_stack(
    x: ad.TensorNode, ctx: StageContext, groups: frozenset[str] = ALL_GROUPS
) -> ad.TensorNode:
    """Concatenate the enabled channels into a (c, H, W) stack node."""
    chans = stage_channels(x, ctx, groups)
    h, w = x.value.shape
    parts = [
        ad.reshape(chans[name], (1, h, w))
        for name in CHANNEL_ORDER
        if name in chans
    ]
    return ad.concat_channels(parts)


def stage_channel_arrays(
    x: np.ndarray, ctx: StageContext, groups: frozenset[str] = ALL_GROUPS
) -> dict[str, np.ndarray]:
    """Channel values for a plain image array (no gradient bookkeeping)."""
    tape = ad.Tape()
    nodes = stage_channels(tape.constant(x), ctx, groups)
    return {name: node.value for name, node in nodes.items()}
