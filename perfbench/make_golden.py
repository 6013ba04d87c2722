#!/usr/bin/env python3
"""Write the golden references the benchmark's warm-up ops are checked against.

    python3 perfbench/make_golden.py

Run it only when a change is meant to alter the workloads' outputs, and say
so in the change: the benchmark's correctness gates compare against these
files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from workloads import GOLDEN_DIR, WORKLOADS  # noqa: E402


def main() -> int:
    values = {}
    for name, wl in WORKLOADS.items():
        values[name] = wl.golden_value(wl.build())
        print(name, np.asarray(values[name]).ravel()[:4])
    GOLDEN_DIR.mkdir(exist_ok=True)
    np.save(GOLDEN_DIR / "recon_mid.npy", values.pop("recon-mid"))
    text = json.dumps({k: [float(v) for v in vals] for k, vals in values.items()}, indent=1)
    (GOLDEN_DIR / "golden.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
