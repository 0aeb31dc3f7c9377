"""The catalocc benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {queries,mc-search,reproduce} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a catalocc checkout; the program is imported from its
``src/``.  Inputs are made from the seed; the run repeats whole passes of its
workload for S seconds, checks every output, and prints each metric with its
unit and sample count.  The last line of standard output is one JSON object:
with ``--trace 0`` it holds the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, SpanStats, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
TRACE_KEEP = 5  # traced passes whose spans are kept
PROBE_TIMEOUT_S = 60
NAN_PROBES = ([math.nan, 1.0], [0.6, 0.4, math.nan], [math.nan, math.nan], [0.5, math.nan, 0.5])
CLI_COMMANDS = ("fixtures", "check", "catalyze", "region", "genpairs", "curve")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        fail("--seed must be a nonnegative 63-bit integer and --seconds positive")
    return args


def environment(threads: int) -> dict:
    import numpy

    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "threads": threads,
    }


def setup_probe(workload: str, seed: int, out_dir: Path) -> dict:
    """One set-up in a fresh interpreter: the program's time in ``setup_s``,
    the benchmark's own input building apart in ``inputs_s``."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed),
         str(out_dir)], cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    t = json.loads(proc.stdout.splitlines()[-1])
    program = t["warm_up_s"] + (t["import_s"] if t["in_process"] else 0.0)
    return {"setup_s": program, **t}


class Verifier:
    """Counts failed operations: the independent checks on the first pass,
    then result-for-result equality with it, and the pinned digest."""

    def __init__(self, wl, pinned: str | None) -> None:
        self.wl, self.pinned = wl, pinned
        self.first = None
        self.first_ok: list[bool] = []
        self.attempted = self.failed = 0
        self.digests: set[str] = set()

    def __call__(self, p) -> None:
        if self.first is None:
            self.first, self.first_ok = p, self.wl.check(p)
            ok = self.first_ok
        else:
            ok = [a == b and good for a, b, good in
                  zip(self.first.results, p.results, self.first_ok)]
            ok += [False] * (len(p.results) - len(ok))
        self.attempted += len(ok)
        self.failed += ok.count(False)
        if self.pinned is not None and p.digest != self.pinned:
            self.failed += 1
        self.digests.add(p.digest)
        if p is not self.first:
            p.results = []  # checked; keep memory use the same however many passes run


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "reproduce" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def median_wall(passes) -> float:
    return statistics.median(p.wall for p in passes)


def end_to_end(wl, passes, setups, rss) -> tuple[dict, list[str]]:
    """Timings of real passes: every pass does the same work, so wall_s is
    the median pass, and the latencies are every operation of every pass."""
    wall = median_wall(passes)
    samples = [t for p in passes for t in p.latencies]
    tail = percentile(samples, wl.tail_pct)
    beyond = sum(x > tail for x in samples)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": wall,
        "throughput_per_s": wl.work(passes[0]) / wall,
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": rss,
    }
    unit = "trials" if wl.name == "mc-search" else wl.ops
    what = "import of catalocc and warm-up" if wl.in_process else "warm-up"
    notes = [
        f"setup_s: median of {len(setups)} set-ups in fresh interpreters ({what}); "
        f"building the inputs took a further median "
        f"{statistics.median(s['inputs_s'] for s in setups):.4g} s, not counted",
        f"wall_s: median of {len(passes)} passes of {len(passes[0].latencies)} {wl.ops}",
        f"throughput_per_s: {unit} of one pass per second of wall_s",
        f"latency_p50_ms: median of n={len(samples)} {wl.ops} over all passes",
        f"latency_tail_ms: p{wl.tail_pct:g} of the same n={len(samples)}, {beyond} beyond it",
        "peak_rss_mb: max RSS of " + ("any child process" if wl.name == "reproduce"
                                      else "the benchmark process") + " up to the first pass",
    ]
    return values, notes


def time_shares(wl, passes) -> dict[str, dict[str, float]]:
    """Share of the summed operation time per group (kind, n, size, ...),
    so a reader can see which operations a workload's timings weigh."""
    totals: dict[str, dict[str, float]] = {}
    labels = wl.labels()
    for p in passes:
        for lab, t in zip(labels, p.latencies):
            for key, value in lab.items():
                group = totals.setdefault(key, {})
                group[value] = group.get(value, 0.0) + t
    return {key: {v: t / sum(group.values()) for v, t in group.items()}
            for key, group in totals.items()}


def share_notes(shares) -> list[str]:
    return [f"time share by {key}: " + ", ".join(
        f"{v} {100 * t:.1f}%" for v, t in sorted(group.items(), key=lambda i: -i[1]))
        for key, group in shares.items()]


def per_layer(traced, untraced, extras) -> dict:
    """Per-layer metrics from the spans of the kept traced passes."""
    kept = [p for p in traced if p.spans]
    stats = SpanStats()
    for p in kept:
        for spans in p.spans:
            stats.add(spans)
    npass = len(kept)
    calls, attrs = stats.calls, stats.attrs
    mc = "search.monte_carlo_standard_catalyst"
    region = "catalysis.mutual_region_scan"
    csv_writer = "experiments.write_region_csv"
    tensor = "core.tensor_spectrum"

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "core.make_osc.calls": calls["core.make_osc"] / npass,
        "core.make_osc.us": stats.mean_us("core.make_osc"),
        "core.majorizes_check.calls": calls["core.majorizes_check"] / npass,
        "core.majorizes_check.us": stats.mean_us("core.majorizes_check"),
        "core.tensor_spectrum.calls": calls[tensor] / npass,
        "core.tensor_spectrum.ns_per_elem": ratio(stats.total_ns[tensor],
                                                  attrs[tensor]["elems"]),
        "core.entropy_bits.us": stats.mean_us("core.entropy_bits"),
        "core.make_osc.nan_accepted": extras["nan_accepted"],
        "catalysis.is_general_catalyst.us": stats.mean_us("catalysis.is_general_catalyst"),
        "catalysis.classify_catalyst.us": stats.mean_us("catalysis.classify_catalyst"),
        "catalysis.locc_feasible.us": stats.mean_us("catalysis.locc_feasible"),
        "catalysis.mutual_region_scan.s": stats.mean_s(region),
        "catalysis.mutual_region_scan.ns_per_cell": ratio(stats.total_ns[region],
                                                          attrs[region]["cells"]),
        "catalysis.region.valid_fraction": ratio(attrs[region]["valid"],
                                                 attrs[region]["cells"]),
        "search.mc.calls": calls[mc] / npass,
        "search.mc.trials": attrs[mc]["trials"] / npass,
        "search.mc.ns_per_elem": ratio(stats.total_ns[mc], attrs[mc]["elems"]),
        "search.mc.success_fraction": ratio(attrs[mc]["success"], calls[mc]),
        "search.mc.self_s": stats.self_ns[mc] / 1e9 / npass,
        "search.general_catalyst_exists.us": stats.mean_us("search.general_catalyst_exists"),
        "search.thread_speedup": extras.get("search.thread_speedup", 0.0),
        "rng.substream.calls": calls["rng.substream"] / npass,
        "rng.substream.us": stats.mean_us("rng.substream"),
        "rng.derive_seed.calls": calls["rng.derive_seed"] / npass,
        "rng.derive_seed.us": stats.mean_us("rng.derive_seed"),
        "experiments.curve.thread_speedup": extras.get("experiments.curve.thread_speedup", 0.0),
        "experiments.write_region_csv.mb_per_s": ratio(attrs[csv_writer]["bytes"] / 1e6,
                                                       stats.total_ns[csv_writer] / 1e9),
        "cli.startup_s": stats.mean_s("startup"),
        "trace.overhead_fraction": median_wall(traced) / median_wall(untraced) - 1.0,
    }
    for fn in ("generate_catalyzable_pairs", "write_pairs_jsonl", "load_pairs_jsonl",
               "success_probability_curve", "write_region_csv", "reference_suite"):
        m[f"experiments.{fn}.s"] = stats.mean_s(f"experiments.{fn}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = stats.layer_self_s(layer) / npass
    for name in CLI_COMMANDS:
        m[f"cli.{name}.s"] = extras.get(f"cli.{name}.s", 0.0)
    return m


def trace_extras(wl, untraced) -> dict:
    """Per-layer figures measured beside the traced passes, without spans."""
    import catalocc

    accepted = 0
    for raw in NAN_PROBES:
        try:
            catalocc.make_osc(raw)
            accepted += 1
        except (catalocc.CataloccError, ValueError):
            pass
    extras = {"nan_accepted": accepted}
    extras.update(wl.speedups())
    if wl.name == "reproduce":
        per_command = [statistics.median(times) for times in
                       zip(*(p.latencies for p in untraced))]
        for name in CLI_COMMANDS:
            extras[f"cli.{name}.s"] = statistics.mean(
                t for t, (cmd, _, _) in zip(per_command, wl.commands) if cmd == name)
    return extras


def main() -> None:
    args = parse_args()
    if not (ROOT / "src" / "catalocc" / "__init__.py").is_file():
        fail(f"{ROOT} holds no src/catalocc; run from the root of a catalocc checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import catalocc

    if Path(catalocc.__file__).resolve().parent != (ROOT / "src" / "catalocc").resolve():
        fail(f"imported catalocc from {catalocc.__file__}, not from this checkout")
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](ROOT, args.seed, out_dir / "work")
    env = environment(wl.threads)

    wl.setup()  # also compiles the sources, so the timed set-ups below are alike
    setups = [setup_probe(wl.name, args.seed, out_dir / f"probe{i}")
              for i in range(SETUP_REPEATS)]

    pinned_all = json.loads((ROOT / "perfbench" / "pinned_digests.json").read_text())
    pinned = pinned_all.get(wl.name, {}).get(str(args.seed))
    verify = Verifier(wl, pinned)
    untraced, traced = [], []
    start = time.perf_counter()
    try:
        if args.trace:
            tracer = Tracer()
            while not traced or time.perf_counter() - start < args.seconds:
                for passes, t in ((untraced, None), (traced, tracer)):
                    passes.append(wl.run_pass(t))
                    verify(passes[-1])
                if len(traced) > TRACE_KEEP:
                    traced[-1].spans = []  # bound memory; the pass still counts for overhead
            extras = trace_extras(wl, untraced)
        else:
            while len(untraced) < wl.min_passes or time.perf_counter() - start < args.seconds:
                untraced.append(wl.run_pass())
                verify(untraced[-1])
                if len(untraced) == 1:
                    rss = peak_rss_mb(wl)
    finally:
        wl.close()
    env["loadavg_end"] = list(os.getloadavg())

    if args.trace:
        values = per_layer(traced, untraced, extras)
        notes = [f"per-layer figures from the spans of {min(len(traced), TRACE_KEEP)} traced "
                 f"passes; overhead from the median wall of {len(traced)} traced and "
                 f"{len(untraced)} untraced passes",
                 "calls, trials and self_s are per pass; us and s are per call"]
        with gzip.open(out_dir / "spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for i, p in enumerate(traced):
                for j, spans in enumerate(p.spans):
                    for span in spans:
                        fh.write(json.dumps({"pass": i, "process": j, "span": span}) + "\n")
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(wl, untraced, setups, rss)
        wanted = spec["end_to_end"]
    shares = time_shares(wl, untraced)
    notes += share_notes(shares)

    consistent = len(verify.digests) == 1
    correct = verify.failed == 0 and consistent
    if {m["name"] for m in wanted} != set(values):
        fail(f"BENCHMARK.json and the measured metrics differ: "
             f"{sorted({m['name'] for m in wanted} ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    digest = next(iter(verify.digests)) if consistent else None
    print(f"failed_fraction = {verify.failed}/{verify.attempted} {wl.ops}"
          f" (digest {digest}, pinned: "
          f"{'none for this seed' if pinned is None else digest == pinned})")
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "digest": digest,
              "digests": sorted(verify.digests), "pinned": pinned, "environment": env,
              "setups": setups, "time_shares": shares,
              "pass_walls": [p.wall for p in untraced],
              "traced_pass_walls": [p.wall for p in traced]}
    (out_dir / "result.json").write_text(
        json.dumps({**record, "metrics": metrics, "notes": notes}, indent=2) + "\n")
    print(json.dumps({"environment": env, "digest": digest}))
    print(json.dumps({"correct": correct, "attempted": verify.attempted,
                      "failed": verify.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
