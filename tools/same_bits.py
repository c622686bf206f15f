"""Print SHA-256 hashes of the closed loops and labeling batches of the
oracle route, and compare a tree's loops with another tree's.

    python3 tools/same_bits.py [--inputs DIR] [--against DIR]

Run it in two trees (for example a change and a `git archive` of its
parent) and compare the output: equal lines mean that the change keeps the
branches, errors and applied inputs of every cycle, and every label, bit
for bit. Each tree is measured with its own sources (src/ next to this
file); the loop and the dataset hash are perfbench's, imported read-only.

- loop_<config>: the full closed loop from k = 0 of each shipped config,
  driven by perfbench's LoopDriver (a cycle that raises is kept as it keeps
  it), hashed over (k, branch, error, u as float.hex) per cycle.
- loop_<config>_branches: the same loop hashed over (k, branch, error)
  alone. A change that moves the applied inputs within a tolerance but
  keeps every decision keeps these lines and changes the ones above.
- label_*: the rows generate_dataset labels on one worker, hashed by
  perfbench's dataset_sha256. These are always exact.

--inputs DIR writes each loop's cycles, (k, branch, error, u) each, to
DIR/loop_<config>.json. --against DIR reads another tree's files of that
name and prints, per loop, the cycles whose branch or error differ and the
largest |du| over the cycles both trees ran.
"""
from __future__ import annotations

import argparse
import hashlib
import json
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

LOOPS = ("baseline", "scenario1", "scenario2")
LABELS = (("scenario1", "E1", 24, 3),       # (config, mode, samples, seed)
          ("scenario1", "E2", 60, 1000),    # perfbench's offline_label batch
          ("scenario2", "E3", 12, 3))


def _config(name: str):
    return load_scenario(os.path.join(ROOT, "configs", name + ".ini"))


def loop_cycles(name: str) -> list:
    """(k, branch, error, u) of every cycle of the config's full loop."""
    config = _config(name)
    driver = LoopDriver(config)
    records = driver.run(driver.initial_state(), 0, config.n_steps, False)
    return [{"k": r["k"], "branch": r["branch"], "error": r["error"],
             "u": r["u"]} for r in records]


def loop_sha256(cycles: list, inputs: bool) -> str:
    h = hashlib.sha256()
    for c in cycles:
        rec = [str(c["k"]), c["branch"], str(c["error"])]
        if inputs:
            rec += [float(v).hex() for v in c["u"]]
        h.update((",".join(rec) + "\n").encode())
    return h.hexdigest()


def compare(cycles: list, other: list) -> tuple:
    """(cycles both ran, cycles whose branch or error differ, largest |du|
    over the cycles both ran)."""
    theirs = {c["k"]: c for c in other}
    common = [(c, theirs[c["k"]]) for c in cycles if c["k"] in theirs]
    differ = sum((a["branch"], a["error"]) != (b["branch"], b["error"])
                 for a, b in common)
    du = max((abs(x - y) for a, b in common for x, y in zip(a["u"], b["u"])),
             default=0.0)
    return len(common), differ, du


def labels_sha256(name: str, mode_name: str, count: int, seed: int) -> str:
    config = _config(name)
    mode, kind, _ = next(s for s in config.mode_specs
                         if s[0].name == mode_name)
    rows, _ = generate_dataset(scenario_template(config, kind), mode, count,
                               seed, workers=1)
    return dataset_sha256(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--inputs", metavar="DIR",
                    help="write each loop's cycles to DIR/loop_<config>.json")
    ap.add_argument("--against", metavar="DIR",
                    help="compare each loop with DIR/loop_<config>.json")
    args = ap.parse_args(argv)
    for name in LOOPS:
        cycles = loop_cycles(name)
        print(f"loop_{name} {loop_sha256(cycles, True)}", flush=True)
        print(f"loop_{name}_branches {loop_sha256(cycles, False)}",
              flush=True)
        file = f"loop_{name}.json"
        if args.inputs:
            os.makedirs(args.inputs, exist_ok=True)
            with open(os.path.join(args.inputs, file), "w") as f:
                json.dump(cycles, f)
        if args.against:
            with open(os.path.join(args.against, file)) as f:
                common, differ, du = compare(cycles, json.load(f))
            print(f"against loop_{name}: {common} cycles, {differ} with "
                  f"another branch or error, max |du| {du:.3g}", flush=True)
    for name, mode, count, seed in LABELS:
        print(f"label_{name}_{mode}_{count}_seed{seed} "
              f"{labels_sha256(name, mode, count, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
