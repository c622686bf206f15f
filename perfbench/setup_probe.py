"""Set-up time of one workload, measured in a fresh interpreter.

Prints the seconds from before `import softmpc` until the workload's first
timed operation is ready, and then the fastest of three host speed kernel
runs in ms, taken right after in the same process, by which run.py scales
the seconds. Run by run.py; by hand:

    python3 perfbench/setup_probe.py cutin
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import softmpc  # noqa: E402,F401

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def main(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    config = workloads.load_config(workload)
    if isinstance(workload, workloads.ClosedLoop):
        from softmpc.simkit import build_controller
        workloads.LoopDriver(config)
        build_controller(config, use_oracle=True)
    else:
        workloads.OfflineDriver(workload, config)
    setup_s = time.perf_counter() - T0
    kernel = min(hostspeed.kernel_ms() for _ in range(3))
    print(repr(setup_s), repr(kernel))


if __name__ == "__main__":
    main(sys.argv[1])
