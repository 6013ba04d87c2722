"""After one warm-up forward at `recon-mid` size, every operator table a
forward reads is in the process-wide store, so a second forward builds
none. This depends on the store's state, so the file also runs alone."""

import numpy as np

from sparsect import fbp as fbp_module
from sparsect import projector as projector_module
from sparsect.geometry import Sinogram, sparse_subset
from sparsect.model import ReconNet
from sparsect.phantoms import shepp_logan
from sparsect.projector import _CACHE_LIMIT_BYTES, _STORE, JosephProjector

from conftest import recon_mid_geometry


def test_second_recon_mid_forward_builds_no_tables(monkeypatch):
    built = {"_ray_tables": 0, "_pixel_taps": 0}
    for module, name in ((projector_module, "_ray_tables"), (fbp_module, "_pixel_taps")):
        def counted(geom, view, original=getattr(module, name), name=name):
            built[name] += 1
            return original(geom, view)

        monkeypatch.setattr(module, name, counted)
    geom = recon_mid_geometry()
    sub = sparse_subset(geom, 32)
    y = Sinogram(JosephProjector(geom, sub).apply(shepp_logan(geom.grid)), geom, sub)
    # width and depth set the convolutions only; every operator runs
    model = ReconNet(geom, width=4, depth=2, n_stages=2, variant="g", seed=0)
    first = model.forward(y).data
    # the full view set's 33 representatives serve the q=32 subset too
    assert built == {"_ray_tables": 33, "_pixel_taps": 33}
    second = model.forward(y).data
    assert built == {"_ray_tables": 33, "_pixel_taps": 33}
    assert second.tobytes() == first.tobytes()
    assert _STORE.nbytes <= _CACHE_LIMIT_BYTES
    assert np.isfinite(first).all()
