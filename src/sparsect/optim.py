"""Adam with bias correction over named parameter dicts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        # A negative rate climbs the loss; NaN or inf poisons every weight.
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {beta}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


class Adam:
    """Updates arrays in place so the owning model sees every step."""

    def __init__(self, params: dict[str, np.ndarray], cfg: AdamConfig = AdamConfig()):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]):
        missing = self.params.keys() - grads.keys()
        if missing:
            raise KeyError(f"gradients missing for {sorted(missing)}")
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            p -= c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)

    def state(self) -> dict:
        """Snapshot for checkpointing (copies, not views)."""
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
            "cfg": self.cfg,
        }

    def load_state(self, state: dict):
        if state["m"].keys() != self.m.keys():
            raise KeyError("optimizer state names do not match parameters")
        self.t = int(state["t"])
        self.cfg = state["cfg"]
        for k in self.m:
            self.m[k][...] = state["m"][k]
            self.v[k][...] = state["v"][k]
