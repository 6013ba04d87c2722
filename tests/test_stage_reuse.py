"""Each tomographic operator runs once per forward pass.

A stage loop that starts from x0 = fbp_s(y) takes its first stack from the
context, and every stage reads P_s x off the subset's rows of P_f x where it
projects onto the full views. The reference below is the loop as it ran
before: the context builds e_full_r and e_null_r with operator calls of
their own, every stage builds its own stack, and P_s x is a projector call
of its own. Outputs, losses and gradients must equal it bitwise, and the
operator calls are pinned against it.
"""

import numpy as np
import pytest

import sparsect.autodiff as ad
from sparsect.correction import apply_correction
from sparsect.experiments import toy_geometry, toy_phantoms
from sparsect.fbp import FbpOperator, ViewUpsampler
from sparsect.geometry import Sinogram
from sparsect.losses import total_loss, unsupervised_loss
from sparsect.model import ReconNet
from sparsect.projector import JosephProjector
from sparsect.refine import CHANNEL_ORDER, StageContext
from sparsect.training import TrainConfig, train_loop

VARIANTS = "abcdefg"


def reference_context(y, bundle, groups):
    x0 = bundle.fbp_s.apply(y.data)
    x_interp = e_full_r = e_null_r = None
    if "interp" in groups:
        x_interp = bundle.fbp_f.apply(bundle.upsampler.apply(y.data))
    if "full" in groups:
        e_full_r = x0 - bundle.fbp_f.apply(bundle.proj_f.apply(x0))
    if "null" in groups:
        e_null_r = x0 - bundle.fbp_s.apply(bundle.proj_s.apply(x0))
    return StageContext(bundle, y.data, x0, x_interp, e_full_r, e_null_r)


def reference_stack(x, ctx, groups):
    b, tape = ctx.bundle, x.tape
    out = {"x_prev": x}
    need_back = "null" in groups or "data" in groups
    ps_x = pf_x = None
    if need_back or "interp" in groups:
        ps_x = ad.linear_op(x, b.proj_s)
    if "full" in groups or "interp" in groups:
        pf_x = ad.linear_op(x, b.proj_f)
    if need_back:
        back = ad.linear_op(ps_x, b.fbp_s)
    if "interp" in groups:
        out["x_interp"] = tape.constant(ctx.x_interp)
        out["e_interp"] = ad.linear_op(ad.linear_op(ps_x, b.upsampler) - pf_x, b.fbp_f)
    if "full" in groups:
        out["e_full_x"] = x - ad.linear_op(pf_x, b.fbp_f)
        out["e_full_r"] = tape.constant(ctx.e_full_r)
    if "data" in groups:
        out["e_data"] = tape.constant(ctx.x0) - back
    if "null" in groups:
        out["e_null"] = x - back
        out["e_null_r"] = tape.constant(ctx.e_null_r)
    h, w = x.value.shape
    return ad.concat_channels(
        [ad.reshape(out[n], (1, h, w)) for n in CHANNEL_ORDER if n in out]
    )


class ReferenceNet(ReconNet):
    def _context(self, y):
        return reference_context(y, self.register_views(y.subset), self.groups)

    def _stage_loop(self, ctx, tape, pnode_sets, n_iters):
        last = len(pnode_sets) - 1
        x = tape.constant(ctx.x0)
        yield x
        for it in range(n_iters):
            stack = reference_stack(x, ctx, self.groups)
            x = apply_correction(stack, pnode_sets[min(it, last)], self.cfg)
            yield x


def pair(variant="g", **kw):
    """A model and its reference twin with equal weights, on the toy scan."""
    kw = {"width": 4, "depth": 1, "n_stages": 3, "variant": variant, **kw}
    geom = toy_geometry()
    return ReconNet(geom, **kw), ReferenceNet(geom, **kw)


def scan(model, q=15):
    bundle = model.register_views(q)
    x = toy_phantoms(1, 5)[0]
    return Sinogram(bundle.proj_s.apply(x), model.geom, bundle.subset), x


def grads(model, y, loss_of):
    tape = ad.Tape()
    out, psets, ctx = model.forward_graph(y, tape)
    loss = loss_of(out, ctx)[0]
    ad.backward(loss)
    flat = {f"{i}.{k}": n.grad for i, ps in enumerate(psets) for k, n in ps.items()}
    return float(loss.value), flat


class TestReferenceEquality:
    @pytest.mark.parametrize("share", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_and_pnp_past_depth_equal_bitwise(self, variant, share):
        model, ref = pair(variant, share_stage_params=share)
        y, _ = scan(model)
        assert np.array_equal(model.forward(y).data, ref.forward(y).data)
        got, want = model.run_pnp(y, 5).images, ref.run_pnp(y, 5).images
        assert len(got) == len(want) == 6
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_losses_and_parameter_gradients_equal_bitwise(self, variant):
        model, ref = pair(variant, share_stage_params=False)
        y, x = scan(model)
        losses = (
            lambda out, ctx: total_loss(out, out.tape.constant(x)),
            lambda out, ctx: unsupervised_loss(out, ctx),
        )
        for loss_of in losses:
            loss, g = grads(model, y, loss_of)
            ref_loss, ref_g = grads(ref, y, loss_of)
            assert loss == ref_loss
            assert g.keys() == ref_g.keys()
            assert all(np.array_equal(g[k], ref_g[k]) for k in g)

    def test_training_log_and_weights_equal_bitwise(self):
        model, ref = pair("g")
        images = toy_phantoms(2, 5)
        cfg = TrainConfig(steps=4, view_schedule=(9, 15), lr=3e-3, gamma=0.25, seed=3)
        rows = train_loop(model, images, cfg).rows
        assert rows == train_loop(ref, images, cfg).rows
        got, want = model.named_parameters(), ref.named_parameters()
        assert all(np.array_equal(got[k], want[k]) for k in got)


class TestFirstStack:
    def test_context_holds_the_stack_of_x0_until_the_loop_takes_it(self):
        model, _ = pair("g")
        y, _ = scan(model)
        ctx = model._context(y)
        assert ctx.first_stack.shape == (8, *model.geom.grid)
        assert np.array_equal(ctx.first_stack[0], ctx.x0)
        _, _, ctx = model.forward_graph(y, ad.Tape())
        assert ctx.first_stack is None


class CallCounter:
    """Counts operator `apply` and `applyT` calls per operator role."""

    def __init__(self, monkeypatch):
        self.calls: dict[str, int] = {}
        for cls in (JosephProjector, FbpOperator, ViewUpsampler):
            for method in ("apply", "applyT"):
                monkeypatch.setattr(cls, method, self._counted(getattr(cls, method), method))

    def _counted(self, fn, method):
        def counted(op, arr):
            name = {"JosephProjector": "P", "FbpOperator": "fbp", "ViewUpsampler": "U"}[
                type(op).__name__]
            if name != "U":
                name += "_f" if op.subset.q1 == op.geom.n_views_full else "_s"
            key = name if method == "apply" else name + "^T"
            self.calls[key] = self.calls.get(key, 0) + 1
            return fn(op, arr)
        return counted

    def take(self) -> dict[str, int]:
        calls, self.calls = self.calls, {}
        return calls


# Operator calls of a 3-stage forward from x0 per variant: (context, whole
# forward, reference forward).
FORWARD_CALLS = {
    "a": (1, 1, 1),
    "b": (6, 12, 15),
    "c": (7, 15, 20),
    "d": (8, 18, 23),
    "e": (3, 7, 7),
    "f": (3, 7, 9),
    "g": (8, 18, 25),
}


class TestOperatorCalls:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_from_x0(self, variant, monkeypatch):
        model, ref = pair(variant)
        y, _ = scan(model)
        ref.register_views(y.subset)
        counter = CallCounter(monkeypatch)
        model._context(y)
        context = sum(counter.take().values())
        model.forward(y)
        forward = sum(counter.take().values())
        ref.forward(y)
        assert (context, forward, sum(counter.take().values())) == FORWARD_CALLS[variant]

    def test_variant_g_per_operator(self, monkeypatch):
        model, ref = pair("g")
        y, x = scan(model)
        ref.register_views(y.subset)
        counter = CallCounter(monkeypatch)
        model.forward(y)
        assert counter.take() == {"P_f": 3, "fbp_f": 7, "fbp_s": 4, "U": 4}
        ref.forward(y)
        assert counter.take() == {"P_f": 4, "fbp_f": 8, "P_s": 4, "fbp_s": 5, "U": 4}
        # Each stage past the first sends P_s x's gradient through P_s^T, as
        # the reference does for every stage whose input needs a gradient.
        for net in (model, ref):
            grads(net, y, lambda out, ctx: total_loss(out, out.tape.constant(x)))
            back = {k: v for k, v in counter.take().items() if k.endswith("^T")}
            assert back == {"P_f^T": 2, "P_s^T": 2, "fbp_f^T": 4, "fbp_s^T": 2, "U^T": 2}
