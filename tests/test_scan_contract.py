"""The scan contract: a view subset fits its geometry, and an array has the
scan's shape. `geometry` holds the only check of each rule, so every
operator, container, the model, training and the CLI refuse the same input
with the same `GeometryError` and the same message."""

import numpy as np
import pytest

from sparsect.cli import main
from sparsect.fbp import FbpOperator, PixelBackprojector, ViewUpsampler
from sparsect.geometry import GeometryError, Image, Sinogram, ViewSubset, sparse_subset
from sparsect.model import ReconNet
from sparsect.projector import JosephProjector
from sparsect.tensorio import save_tensor
from sparsect.training import TrainConfig, train_loop

OPERATORS = [JosephProjector, PixelBackprojector, FbpOperator, ViewUpsampler]


def message(fn) -> str:
    with pytest.raises(GeometryError) as info:
        fn()
    return str(info.value)


def test_out_of_range_subset_gets_one_error_everywhere(small_fan):
    bad = ViewSubset(np.array([0, 5, 12]))
    refusals = [lambda cls=cls: cls(small_fan, bad) for cls in OPERATORS] + [
        lambda: Sinogram(np.zeros((3, small_fan.n_det)), small_fan, bad),
        lambda: ReconNet(small_fan, width=2, depth=1, n_stages=1).register_views(bad),
    ]
    messages = {message(fn) for fn in refusals}
    assert messages == {"subset index 12 exceeds the full view count 12"}


def test_misshapen_image_gets_one_error_everywhere(small_fan):
    sub = sparse_subset(small_fan, 6)
    bad = np.zeros((4, 5))
    refusals = [
        lambda: JosephProjector(small_fan, sub).apply(bad),
        lambda: PixelBackprojector(small_fan, sub).applyT(bad),
        lambda: FbpOperator(small_fan, sub).applyT(bad),
        lambda: Image(bad, small_fan),
        lambda: train_loop(ReconNet(small_fan, width=2, depth=1, n_stages=1),
                           [np.zeros(small_fan.grid), bad], TrainConfig(1, (6,))),
    ]
    messages = {message(fn) for fn in refusals}
    assert messages == {"image shape (4, 5) does not match the scan's (16, 16)"}


def test_misshapen_sinogram_gets_one_error_everywhere(small_fan):
    sub = sparse_subset(small_fan, 6)
    bad = np.zeros((6, 23))
    refusals = [
        lambda: JosephProjector(small_fan, sub).applyT(bad),
        lambda: PixelBackprojector(small_fan, sub).apply(bad),
        lambda: FbpOperator(small_fan, sub).apply(bad),
        lambda: ViewUpsampler(small_fan, sub).apply(bad),
        lambda: Sinogram(bad, small_fan, sub),
    ]
    messages = {message(fn) for fn in refusals}
    assert messages == {"sinogram shape (6, 23) does not match the scan's (6, 24)"}


def test_upsampler_transpose_checks_the_full_view_shape(small_fan):
    up = ViewUpsampler(small_fan, sparse_subset(small_fan, 6))
    assert "does not match the scan's (12, 24)" in message(
        lambda: up.applyT(np.zeros((6, 24))))


def test_cli_misshapen_sinogram_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("beam = parallel\nn_views = 12\nn_det = 24\ndet_spacing_mm = 1.1\n"
                   "grid_m1 = 16\ngrid_m2 = 16\npixel_size_mm = 1.0\n")
    sino = str(tmp_path / "y.tgrd")
    save_tensor(sino, np.zeros((6, 23)))
    out = tmp_path / "rec.tgrd"
    rc = main(["fbp", "--geometry", str(cfg), "--views", "6", sino, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {sino}: sinogram shape (6, 23) does not match the scan's (6, 24)\n"
    assert not out.exists()
