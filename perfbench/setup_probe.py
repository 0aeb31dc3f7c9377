"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR

Prints one JSON object with three times in seconds: ``import_s``, the import
of catalocc (numpy included) before anything else is loaded; ``inputs_s``,
the benchmark building the workload's inputs from the seed; and
``warm_up_s``, the program's warm-up calls.  The program's set-up time is
``import_s + warm_up_s`` for a workload that runs the program in this
process, and ``warm_up_s`` alone for one that runs it in subprocesses.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import catalocc  # noqa: F401

    t1 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](ROOT, seed, out_dir)
    t2 = time.perf_counter()
    wl.make_inputs()
    t3 = time.perf_counter()
    wl.warm_up()
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2, "warm_up_s": t4 - t3,
                      "in_process": wl.in_process}))


if __name__ == "__main__":
    main()
