"""Adam with bias correction over named parameter dicts.

The learning rate is the one setting: `BETA1`, `BETA2` and `EPS` are Adam's
published constants (Kingma & Ba, 2015), which checkpoints store and check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-4

    def __post_init__(self):
        # A negative rate climbs the loss; NaN or inf poisons every weight.
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


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
        lr = self.cfg.lr
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)

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
