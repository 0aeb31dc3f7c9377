"""Pin the determinism digest of each workload for a range of seeds.

    python3 perfbench/pin.py --seeds 0-31 [--workload NAME ...]

For every workload and seed this runs one untraced pass, requires every
operation to pass the independent checks, and stores the pass digest in
perfbench/pinned_digests.json.  A benchmark run on a pinned seed counts a
failed operation for each pass whose digest differs.  Re-pin only when a
workload's inputs change; outputs of the program must stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "perfbench" / "pinned_digests.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range such as 0-31")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    for name in args.workload or list(WORKLOADS):
        for seed in range(lo, hi + 1):
            out_dir = ROOT / ".bench_out" / f"pin-{name}-{seed}"
            shutil.rmtree(out_dir, ignore_errors=True)
            wl = WORKLOADS[name](ROOT, seed, out_dir)
            wl.setup()
            try:
                p = wl.run_pass()
                ok = wl.check(p)
            finally:
                wl.close()
            shutil.rmtree(out_dir, ignore_errors=True)
            if not all(ok):
                sys.exit(f"{name} seed {seed}: {ok.count(False)} operations fail the checks")
            pinned.setdefault(name, {})[str(seed)] = p.digest
            print(f"{name} {seed} {p.digest}", flush=True)
            PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
