"""Print one SHA-256 per closed loop and labeling batch of the oracle route.

    python3 tools/same_bits.py

Run it in two trees (for example a change and a `git archive` of its
parent) and compare the output: equal lines mean that the change keeps the
branches, errors and applied inputs of every cycle, and every label, bit
for bit. Each tree is measured with its own sources (src/ next to this
file); the loop and the dataset hash are perfbench's, imported read-only.

- loop_scenario1, loop_scenario2: the full closed loop from k = 0, driven
  by perfbench's LoopDriver (a cycle that raises is kept as it keeps it),
  hashed over (k, branch, error, u as float.hex) per cycle.
- label_*: the rows generate_dataset labels on one worker, hashed by
  perfbench's dataset_sha256.
"""
from __future__ import annotations

import hashlib
import os
import sys

# pinned as perfbench pins them, before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from workloads import LoopDriver, dataset_sha256  # noqa: E402

from softmpc.oracle import generate_dataset  # noqa: E402
from softmpc.simkit import load_scenario, scenario_template  # noqa: E402

LOOPS = ("scenario1", "scenario2")
LABELS = (("scenario1", "E1", 24, 3),       # (config, mode, samples, seed)
          ("scenario1", "E2", 60, 1000),    # perfbench's offline_label batch
          ("scenario2", "E3", 12, 3))


def _config(name: str):
    return load_scenario(os.path.join(ROOT, "configs", name + ".ini"))


def loop_sha256(name: str) -> str:
    config = _config(name)
    driver = LoopDriver(config)
    h = hashlib.sha256()
    records = driver.run(driver.initial_state(), 0, config.n_steps, False)
    for r in records:
        rec = [str(r["k"]), r["branch"], str(r["error"])]
        h.update((",".join(rec + [float(v).hex() for v in r["u"]])
                  + "\n").encode())
    return h.hexdigest()


def labels_sha256(name: str, mode_name: str, count: int, seed: int) -> str:
    config = _config(name)
    mode, kind, _ = next(s for s in config.mode_specs
                         if s[0].name == mode_name)
    rows, _ = generate_dataset(scenario_template(config, kind), mode, count,
                               seed, workers=1)
    return dataset_sha256(rows)


def main() -> int:
    for name in LOOPS:
        print(f"loop_{name} {loop_sha256(name)}", flush=True)
    for name, mode, count, seed in LABELS:
        print(f"label_{name}_{mode}_{count}_seed{seed} "
              f"{labels_sha256(name, mode, count, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
