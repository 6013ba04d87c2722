"""Unfolded reconstruction network: error channels in, corrected image out.

One stage projects the running estimate, turns residuals into image-domain
error channels, and feeds them through the multigrid-style correction
network. Stages share parameters by default; the per-view-count operator
handles live in a registry so a trained model can be pointed at view counts
it never saw during training.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .correction import (
    CorrectionConfig,
    apply_correction,
    init_params,
    wrap_params,
)
from .geometry import (
    GeometryError,
    Image,
    ScanGeometry,
    Sinogram,
    ViewSubset,
    _check_count,
    _view_subset,
    sparse_subset,
)
from .refine import (
    OperatorBundle,
    StageContext,
    assemble_stack,
    build_bundle,
    build_context,
    stack_width,
    variant_groups,
)


@dataclass(eq=False)
class PnpTrajectory:
    """Recorded iterates of repeated stage application."""

    images: list[np.ndarray]
    metrics: list[float] | None


class ReconNet:
    """Stage-unfolded sparse-view reconstructor over one scan geometry."""

    def __init__(
        self,
        geom: ScanGeometry,
        width: int = 32,
        depth: int = 5,
        n_stages: int = 7,
        variant: str = "g",
        seed: int = 0,
        share_stage_params: bool = True,
        leaky_slope: float = 0.01,
    ):
        _check_count("n_stages", n_stages, 1)
        self.geom = geom
        self.groups = variant_groups(variant)
        self.variant = variant
        self.cfg = CorrectionConfig(
            width=width, depth=depth,
            c_in=stack_width(self.groups), leaky_slope=leaky_slope,
        )
        self.n_stages = n_stages
        self.share_stage_params = share_stage_params
        n_sets = 1 if share_stage_params else n_stages
        self.param_sets = [init_params(self.cfg, seed + i) for i in range(n_sets)]
        self._bundles: dict[int, OperatorBundle] = {}

    # -- parameters ----------------------------------------------------------

    @property
    def param_count(self) -> int:
        return sum(int(a.size) for ps in self.param_sets for a in ps.values())

    def named_parameters(self) -> dict[str, np.ndarray]:
        """Flat view across parameter sets; arrays are shared, not copied."""
        return {
            f"p{i}.{name}": arr
            for i, ps in enumerate(self.param_sets)
            for name, arr in ps.items()
        }

    def with_geometry(self, geom: ScanGeometry) -> "ReconNet":
        """Same weights (copied) bound to a different scan layout."""
        twin = copy.copy(self)
        twin.geom = geom
        twin.param_sets = [{k: v.copy() for k, v in ps.items()} for ps in self.param_sets]
        twin._bundles = {}
        return twin

    # -- geometry registry -----------------------------------------------------

    def register_views(self, subset_or_count: ViewSubset | int) -> OperatorBundle:
        """Build (or fetch) the operator bundle for a view subset.

        Registering a different subset under an already-registered view
        count is an error; re-registering the same one is a no-op. A count
        is any integer, Python's or NumPy's, but not a bool.
        """
        if isinstance(subset_or_count, ViewSubset):
            subset = _view_subset(self.geom, subset_or_count)
        elif isinstance(subset_or_count, numbers.Integral) and not isinstance(subset_or_count, bool):
            subset = sparse_subset(self.geom, int(subset_or_count))
        else:
            raise GeometryError(f"expected a view count or a ViewSubset, got {subset_or_count!r}")
        key = subset.q1
        have = self._bundles.get(key)
        if have is not None:
            if not np.array_equal(have.subset.indices, subset.indices):
                raise GeometryError(
                    f"view count {key} already registered with different indices"
                )
            return have
        bundle = build_bundle(self.geom, subset)
        self._bundles[key] = bundle
        return bundle

    @property
    def registered_view_counts(self) -> tuple[int, ...]:
        return tuple(sorted(self._bundles))

    # -- forward -------------------------------------------------------------

    def _context(self, y: Sinogram) -> StageContext:
        if y.geom.fingerprint != self.geom.fingerprint:
            raise GeometryError("sinogram geometry does not match the model's")
        bundle = self.register_views(y.subset)
        return build_context(y, bundle, self.groups)

    def _stage_loop(self, ctx: StageContext, tape: ad.Tape, pnode_sets, n_iters: int):
        """Yield x0, then the iterate after each stage.

        Stage `it` uses parameter set min(it, last), which serves shared and
        per-stage parameters, and holds the last set past the unfolded depth.
        The first stage takes its stack from the context, which then drops
        it, so later stages do not hold it too.
        """
        last = len(pnode_sets) - 1
        x = tape.constant(ctx.x0)
        yield x
        for it in range(n_iters):
            if it == 0:
                stack, ctx.first_stack = tape.constant(ctx.first_stack), None
            else:
                stack = assemble_stack(x, ctx, self.groups)
            x = apply_correction(stack, pnode_sets[min(it, last)], self.cfg)
            yield x

    def forward_graph(self, y: Sinogram, tape: ad.Tape):
        """Differentiable forward pass.

        Returns (output node, list of parameter-node dicts, stage context).
        Parameter nodes are created once and reused per stage when shared,
        so backward sums gradient contributions across stages.
        """
        ctx = self._context(y)
        pnode_sets = [wrap_params(tape, ps) for ps in self.param_sets]
        *_, x = self._stage_loop(ctx, tape, pnode_sets, self.n_stages)
        return x, pnode_sets, ctx

    def forward(self, y: Sinogram) -> Image:
        """Reconstruct: the last of `n_stages` iterates of `run_pnp`.

        Parameters enter as constants, so no gradient graph is built; the
        output equals `forward_graph`'s bitwise.
        """
        return Image(self.run_pnp(y, self.n_stages).images[-1], self.geom)

    # -- plug-and-play iteration ------------------------------------------------

    def run_pnp(self, y: Sinogram, max_iters: int, metric=None) -> PnpTrajectory:
        """Apply the trained stage repeatedly, past the unfolded depth.

        The first n_stages iterates are forward()'s. `metric`, if given, is
        called with each image (initialization included) and its values are
        recorded alongside.
        """
        _check_count("max_iters", max_iters, 0)
        ctx = self._context(y)
        tape = ad.Tape()
        pnode_sets = [
            {name: tape.constant(arr) for name, arr in ps.items()}
            for ps in self.param_sets
        ]
        iterates = self._stage_loop(ctx, tape, pnode_sets, max_iters)
        images = [x.value.copy() for x in iterates]
        metrics = None if metric is None else [float(metric(im)) for im in images]
        return PnpTrajectory(images=images, metrics=metrics)
