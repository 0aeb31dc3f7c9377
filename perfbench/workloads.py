"""The three workloads: set-up, one measured pass, and the checks on a pass.

A pass is one fixed unit of work made from the seed: the query stream, the
set of searches, or the reproduction session.  A run repeats passes in a
closed loop with one client until its time is up; every pass of a run does
the same work, so passes are compared result for result.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from tracing import read_spans

FEASIBLE = ("majorized_by", "equivalent")
COMMAND_TIMEOUT_S = 150


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def file_sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Pass:
    wall: float  # seconds for the whole pass
    latencies: list[float]  # seconds per operation
    results: list  # canonical result per operation; the digest covers these
    trials: int = 0  # Monte Carlo trials used
    spans: list[list[tuple]] = field(default_factory=list)  # one span list per process

    @property
    def digest(self) -> str:
        return digest(self.results)


def _valid_catalyst(c, k: int) -> bool:
    return (len(c) == k and all(c[i] >= c[i + 1] for i in range(k - 1))
            and c[-1] >= 0.0 and abs(math.fsum(c) - 1.0) <= 1e-9)


def _standard_ok(psi, phi, c) -> bool:
    """Scalar check of a reported standard catalyst c for psi -> phi."""
    return leq_sorted(gen.product(psi, c), gen.product(phi, c))


def leq_sorted(a, b) -> bool:
    return gen.leq(sorted(a, reverse=True), sorted(b, reverse=True))


class Workload:
    name = ""
    ops = ""  # what one operation is, in the plural
    # The tail percentile is fixed per workload, so runs of a faster and a
    # slower program report the same percentile; a run makes at least
    # min_passes passes, so at least ten samples always lie beyond it.
    tail_pct = 50.0
    min_passes = 1
    threads = 1
    in_process = True  # does the program run in the benchmark's process?

    def __init__(self, root: Path, seed: int, out_dir: Path) -> None:
        self.root, self.seed, self.out_dir = root, seed, out_dir

    def make_inputs(self) -> None:
        """Build the inputs from the seed: the benchmark's work, not the program's."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Import the program and warm it up, as a user's first calls would."""
        raise NotImplementedError

    def setup(self) -> None:
        self.make_inputs()
        self.warm_up()

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass) -> list[bool]:
        """Per operation: does it pass the independent checks?"""
        raise NotImplementedError

    def work(self, p: Pass) -> float:
        """Units of work in a pass, for throughput: one per operation."""
        return len(p.latencies)

    def labels(self) -> list[dict[str, str]]:
        """Per operation of a pass: the groups it belongs to, for the report
        of which operations take the pass time (for example kind and n)."""
        raise NotImplementedError

    def speedups(self) -> dict[str, float]:
        """Thread-count comparisons made after the traced run's passes."""
        return {}

    def close(self) -> None:
        """Remove what the passes left on disk."""


# ---------------------------------------------------------------------------


def _q_check(C, psi, phi):
    v = C.majorizes_check(C.make_osc(psi), C.make_osc(phi))
    return ["check", v.relation.value, v.first_violation]


def _q_general(C, psi, phi, chi):
    q = C.TransformQuery(C.make_osc(psi), C.make_osc(phi))
    r = C.is_general_catalyst(q, C.make_osc(chi))
    return ["general", r.feasible, r.classification.kind.value if r.feasible else None]


def _q_standard(C, psi, phi, chi):
    # what `catalyze --chi FILE --mode standard` does
    q = C.TransformQuery(C.make_osc(psi), C.make_osc(phi))
    c = C.make_osc(chi)
    v = C.majorizes_check(C.tensor_spectrum(q.psi, c), C.tensor_spectrum(q.phi, c))
    feasible = v.relation.value in FEASIBLE
    kind = C.classify_catalyst(q, c, c).kind.value if feasible else None
    return ["standard", feasible, kind]


def _q_exists(C, psi, phi, k):
    q = C.TransformQuery(C.make_osc(psi), C.make_osc(phi))
    return ["exists", C.general_catalyst_exists(q, k)]


def _q_mc(C, psi, phi, k, budget, seed):
    q = C.TransformQuery(C.make_osc(psi), C.make_osc(phi))
    o = C.monte_carlo_standard_catalyst(q, C.SearchConfig(k=k, big_number=budget, seed=seed))
    if o.status.value == "success":
        return ["mc", "success", o.trials_used, list(o.catalyst)]
    return ["mc", o.status.value, None, None]


def _q_malformed(C, bad, good):
    try:
        C.majorizes_check(C.make_osc(bad), C.make_osc(good))
    except (C.CataloccError, ValueError):
        return ["malformed", "rejected"]
    return ["malformed", "accepted"]


QUERY_OPS = {"check": _q_check, "general": _q_general, "standard": _q_standard,
             "exists": _q_exists, "mc": _q_mc, "malformed": _q_malformed}


def _call(C, ops, item):
    try:
        return ops[item[0]](C, *item[1:])
    except Exception as exc:  # an unexpected raise is a failed operation
        return ["error", item[0], type(exc).__name__, str(exc)[:200]]


def _expected_query(item, result) -> bool:
    """Independent check of one query result."""
    kind = item[0]
    if result[0] != kind:
        return False
    if kind == "malformed":
        return result[1] == "rejected"
    psi = sorted(item[1], reverse=True)
    phi = sorted(item[2], reverse=True)
    if kind == "check":
        fwd, rev = gen.first_violation(psi, phi), gen.first_violation(phi, psi)
        if fwd is None:
            relation = "equivalent" if rev is None else "majorized_by"
        else:
            relation = "incomparable" if rev is not None else "majorizes"
        return result[1:] == [relation, fwd]
    if kind == "general":
        feasible = gen.leq(gen.product(psi, item[3]), phi)
        return result[1:] == [feasible, "sub" if feasible else None]
    if kind == "standard":
        feasible = _standard_ok(psi, phi, item[3])
        return result[1:] == [feasible, "standard" if feasible else None]
    if kind == "exists":
        k = item[3]
        return result[1] == gen.leq(gen.product(psi, [1.0 / k] * k), phi)
    # mc: a success must carry a valid catalyst that passes the scalar check
    if result[1] == "success":
        c = result[3]
        return (_valid_catalyst(c, item[3]) and 1 <= result[2] <= item[4]
                and _standard_ok(psi, phi, c))
    return result[1] == "failure"


class Queries(Workload):
    name = "queries"
    ops = "queries"
    tail_pct = 99.0  # 2,000 queries a pass: 20 beyond it in a single pass

    def make_inputs(self) -> None:
        self.stream = gen.query_stream(self.seed)

    def warm_up(self) -> None:
        import catalocc

        self.C = catalocc
        for item in self.stream[:200]:
            _call(self.C, QUERY_OPS, item)

    def run_pass(self, tracer=None) -> Pass:
        C, ops = self.C, QUERY_OPS
        lat, res = [], []
        clock = time.perf_counter
        with tracer or contextlib.nullcontext():
            start = clock()
            for item in self.stream:
                t0 = clock()
                r = _call(C, ops, item)
                lat.append(clock() - t0)
                res.append(r)
            wall = clock() - start
        return Pass(wall, lat, res, spans=[tracer.take()] if tracer else [])

    def check(self, p: Pass) -> list[bool]:
        return [_expected_query(item, r) for item, r in zip(self.stream, p.results)]

    def labels(self) -> list[dict[str, str]]:
        return [{"kind": item[0], "n": str(len(item[1]))} for item in self.stream]


# ---------------------------------------------------------------------------


class McSearch(Workload):
    name = "mc-search"
    ops = "searches"
    # A pass has at least 9 searches per size (27 in all), so four passes
    # give at least 108 samples and at least ten beyond p90.
    tail_pct = 90.0
    min_passes = 4
    threads = gen.MC_WORKERS

    def make_inputs(self) -> None:
        self.streams = gen.mc_pairs(self.seed)
        self.plan: list[tuple] = []

    def warm_up(self) -> None:
        import catalocc

        self.C = catalocc
        for n, k, _ in gen.MC_SIZES:  # one block of trials per size
            self._search(n, k, 4096, *self.streams[(n, k)][0])

    def _search(self, n, k, budget, psi, phi, s, workers=gen.MC_WORKERS):
        C = self.C
        q = C.TransformQuery(C.make_osc(psi), C.make_osc(phi))
        return C.monte_carlo_standard_catalyst(
            q, C.SearchConfig(k=k, big_number=budget, seed=s), workers=workers)

    def run_pass(self, tracer=None) -> Pass:
        lat, res, plan = [], [], []
        trials = 0
        clock = time.perf_counter
        with tracer or contextlib.nullcontext():
            start = clock()
            for n, k, budget in gen.MC_SIZES:
                stream = iter(self.streams[(n, k)])
                left = gen.MC_QUOTA_SEARCHES * budget
                while left > 0:
                    psi, phi, s = next(stream)
                    m = min(budget, left)
                    plan.append((n, k, m, psi, phi, s))
                    t0 = clock()
                    try:
                        o = self._search(n, k, m, psi, phi, s)
                    except Exception as exc:  # an unexpected raise is a failed operation
                        lat.append(clock() - t0)
                        res.append(["error", n, k, type(exc).__name__, str(exc)[:200]])
                        left -= m
                        continue
                    dt = clock() - t0
                    lat.append(dt)
                    trials += o.trials_used
                    left -= o.trials_used
                    if o.status.value == "success":
                        res.append(["mc", n, k, "success", o.trials_used, list(o.catalyst)])
                    else:
                        res.append(["mc", n, k, o.status.value, m, None])
            wall = clock() - start
        self.plan, self.last_results = plan, res
        return Pass(wall, lat, res, trials, spans=[tracer.take()] if tracer else [])

    def check(self, p: Pass) -> list[bool]:
        ok = []
        for (n, k, budget, psi, phi, _), r in zip(self.plan, p.results):
            if r[0] == "mc" and r[3] == "success":
                c = r[5]
                ok.append(_valid_catalyst(c, k) and 1 <= r[4] <= budget
                          and _standard_ok(sorted(psi, reverse=True),
                                           sorted(phi, reverse=True), c))
            else:
                ok.append(r[0] == "mc" and r[3] == "failure")
        return ok

    def labels(self) -> list[dict[str, str]]:
        return [{"size": f"{n}x{k}"} for n, k, *_ in self.plan]

    def speedups(self) -> dict[str, float]:
        """Time of one worker over two, on the first search of each size
        that exhausts its full budget."""
        full = {(n, k): m for n, k, m in gen.MC_SIZES}
        seen, times = set(), {1: 0.0, 2: 0.0}
        for (n, k, m, psi, phi, s), r in zip(self.plan, self.last_results):
            if (n, k) in seen or m != full[(n, k)] or r[3] != "failure":
                continue
            seen.add((n, k))
            for workers in times:
                t0 = time.perf_counter()
                self._search(n, k, m, psi, phi, s, workers)
                times[workers] += time.perf_counter() - t0
        return {"search.thread_speedup": times[1] / times[2]}

    def work(self, p: Pass) -> float:
        """Trials used; the same at each size in every pass."""
        return p.trials


# ---------------------------------------------------------------------------


def _last_json(stdout: str):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


class Reproduce(Workload):
    name = "reproduce"
    ops = "commands"
    # Nine commands of very different cost: any higher percentile would only
    # pick out which command sits at that rank.  Three sessions give 27
    # samples, 13 beyond the median.
    tail_pct = 50.0
    min_passes = 3
    threads = 2  # curve --threads 2
    in_process = False

    OUTPUTS = {"fixtures": "fixtures.json", "region": "region.csv",
               "genpairs": "pairs.jsonl", "curve": "curve.csv"}

    def make_inputs(self) -> None:
        self.in_dir = self.out_dir / "in"
        self.in_dir.mkdir(parents=True, exist_ok=True)
        for name, coeffs in gen.STATES.items():
            (self.in_dir / f"{name}.json").write_text(
                json.dumps({"name": name, "coeffs": coeffs}) + "\n", encoding="utf-8")
        self.commands = gen.session_commands(self.seed)
        self.sessions = 0
        self.last_out: Path | None = None

    def warm_up(self) -> None:
        self.launch(["--version"], None)

    def launch(self, argv: list[str], trace_file: Path | None):
        """Run one catalocc command through the launcher; (rc, stdout, seconds)."""
        cmd = [sys.executable, str(self.root / "perfbench" / "launcher.py")]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--"] + argv, cwd=self.root, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
        return proc.returncode, proc.stdout, time.perf_counter() - t0

    def run_pass(self, tracer=None) -> Pass:
        """One session; ``tracer`` only switches tracing on in the commands."""
        self.close()
        self.sessions += 1
        out = self.out_dir / f"session{self.sessions}"
        out.mkdir(parents=True)
        lat, runs, trace_files = [], [], []
        start = time.perf_counter()
        for i, (name, argv, _) in enumerate(self.commands):
            argv = [a.replace("{in}", str(self.in_dir.relative_to(self.root)))
                     .replace("{out}", str(out.relative_to(self.root))) for a in argv]
            trace_file = out / f"spans{i}.jsonl.gz" if tracer is not None else None
            rc, stdout, dt = self.launch(argv, trace_file)
            lat.append(dt)
            runs.append((rc, stdout))
            if trace_file is not None:
                trace_files.append(trace_file)
        wall = time.perf_counter() - start
        results = []
        for (name, _, _), (rc, stdout) in zip(self.commands, runs):
            try:
                summary = _last_json(stdout)
            except json.JSONDecodeError:
                summary = {"unparsed": stdout[-200:]}
            if isinstance(summary, dict):
                summary = {k: v for k, v in summary.items() if k not in ("csv", "jsonl")}
            row = [name, rc, summary]
            if name in self.OUTPUTS:
                row.append(self._output_digest(out, name))
            results.append(row)
        spans = [read_spans(f) for f in trace_files if f.exists()]
        self.last_out = out
        return Pass(wall, lat, results, spans=spans)

    def labels(self) -> list[dict[str, str]]:
        return [{"command": name} for name, _, _ in self.commands]

    def _output_digest(self, out: Path, name: str):
        """[sha256 of the output, does it match the command's manifest?]"""
        path = out / self.OUTPUTS[name]
        manifest = out / f"{name}.manifest.json"
        if not path.exists() or not manifest.exists():
            return [None, False]
        sha = file_sha256(path)
        recorded = json.loads(manifest.read_text(encoding="utf-8"))["outputs"].get(path.name)
        return [sha, recorded == sha]

    def check(self, p: Pass) -> list[bool]:
        """Exit codes, output sha256 against each manifest, and scalar checks
        of every reported success, including each record of pairs.jsonl and
        each feasible cell of region.csv."""
        ok = []
        for (name, argv, rc_expected), row in zip(self.commands, p.results):
            good = row[1] == rc_expected and isinstance(row[2], dict)
            try:
                if good and name in self.OUTPUTS:
                    good = row[3][1] and self._check_file(name, self.last_out, row[2], argv)
                if good and name in ("check", "catalyze"):
                    good = self._check_answer(argv, row[2])
            except (KeyError, TypeError, ValueError, OSError):  # malformed output
                good = False
            ok.append(good)
        return ok

    def _check_answer(self, argv: list[str], js: dict) -> bool:
        s = gen.STATES
        psi, phi, chi = s["psi"], s["phi"], s["chi"]
        if argv[0] == "check":
            fwd = gen.first_violation(psi, phi)
            return js["feasible"] == (fwd is None) and js["first_violation"] == fwd
        mode = argv[argv.index("--mode") + 1]
        if "--chi" in argv:
            if mode == "standard":
                feasible = _standard_ok(psi, phi, chi)
                kind = "standard"
            else:
                feasible = gen.leq(gen.product(psi, chi), phi)
                kind = "sub"
            cls = js.get("classification") or {}
            return js["feasible"] == feasible and (not feasible or cls.get("kind") == kind)
        k = int(argv[argv.index("--k") + 1])
        if mode == "general":
            return js["exists"] == gen.leq(gen.product(psi, [1.0 / k] * k), phi)
        if js["status"] != "success":
            return js["status"] == "failure"
        c = js["catalyst"]
        return _valid_catalyst(c, k) and _standard_ok(psi, phi, c)

    def _check_file(self, name: str, out: Path, js: dict, argv: list[str]) -> bool:
        if name == "fixtures":
            rows = json.loads((out / "fixtures.json").read_text(encoding="utf-8"))
            return js.get("passed") is True and all(r["passed"] for r in rows)
        if name == "genpairs":
            count = 0
            with (out / "pairs.jsonl").open(encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    psi, phi, w = rec["psi"], rec["phi"], rec["witness"]
                    if leq_sorted(psi, phi) or not _standard_ok(sorted(psi, reverse=True),
                                                               sorted(phi, reverse=True), w):
                        return False
                    count += 1
            return count == int(argv[argv.index("--count") + 1]) == js.get("count")
        if name == "curve":
            with (out / "curve.csv").open(encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            fractions = [float(r["success_fraction"]) for r in rows]
            manifest = json.loads((out / "curve.manifest.json").read_text(encoding="utf-8"))
            return (bool(rows) and fractions == sorted(fractions) and 0.0 <= fractions[0]
                    and fractions[-1] <= 1.0
                    and all(r["pairs"] == str(gen.PAIR_COUNT) for r in rows)
                    and manifest["inputs"]["pairs"] == file_sha256(out / "pairs.jsonl"))
        # region: every feasible cell must be valid and pass the scalar check
        s = gen.STATES
        lhs = sorted(gen.product(s["mpsi"], s["mchi"]), reverse=True)
        feasible = 0
        with (out / "region.csv").open(encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                if line.endswith(",1\n"):
                    x1, x2, valid, _ = line.split(",")
                    x1, x2 = float(x1), float(x2)
                    if valid != "1" or not gen.leq(lhs, gen.product(s["mphi"],
                                                                    [x1, x2, 1.0 - x1 - x2])):
                        return False
                    feasible += 1
        return feasible == js.get("feasible_cells") and feasible > 0

    def speedups(self) -> dict[str, float]:
        """success_probability_curve on the last session's pairs, in process:
        the time with one worker over the time with two."""
        import catalocc.experiments as E

        pairs = E.load_pairs_jsonl(self.last_out / "pairs.jsonl")
        times = []
        for workers in (1, 2):
            t0 = time.perf_counter()
            E.success_probability_curve(pairs, 4, [1, 5, 10, 25, 50, 100], self.seed,
                                        workers=workers)
            times.append(time.perf_counter() - t0)
        return {"experiments.curve.thread_speedup": times[0] / times[1]}

    def close(self) -> None:
        if self.last_out is not None:
            shutil.rmtree(self.last_out, ignore_errors=True)
            self.last_out = None


WORKLOADS = {w.name: w for w in (Queries, McSearch, Reproduce)}
