"""Benchmark of the subspace_lrc package: four workloads, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 12 --trace 0

Every workload calls the package in this process through its public entry
points (`cli.main` for analyze/verify, `locality.repair` for repair), on one
thread. Each run prints a report line and, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics (from an untraced and a traced pass
over the same inputs) with `--trace 1`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
from refclock import RefClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "subspace_lrc"
GOLDENS = BENCH_DIR / "goldens.json"
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("scan", "locality", "repair", "verify")

# Rounds per 12 seconds of --seconds (reference seconds, refclock.py); a run
# is a fixed amount of work, so two commits compare on equal work. Each
# fixed workload's operations differ in cost by at least 1.6x next to its
# median operation and next to the one its tail falls on, and these round
# counts put the median and the tail (the 11th-largest latency) in the
# middle of one operation's repeats, never on the edge between two.
NOMINAL_SECONDS = 12
ROUNDS = {"scan": 7, "locality": 7, "repair": 3, "verify": 7}
SETUPS = 5  # set-up repeats per run; setup_s is their median
TRACE_SHARE = 3  # the traced run measures a third of the rounds, twice

# scan: weights and distance of each bundle, nearly all time in the Gray-code
# codeword scan. Codeword count varies against row length (256 codewords of
# 85 columns up to 6,561 of 81 and 4,096 of 273), and odd q and q=4 are
# included, so a characteristic-2-only kernel helps part of it.
SCAN = (
    ("spread", "gf(2)", 8, 2, 1),
    ("spread", "gf(3)", 6, 2, 1),
    ("spread", "gf(4)", 6, 3, 1),
    ("std-par", "gf(3)", 8, 4, 1),
    ("spread", "gf(2)", 12, 4, 1),
)
SCAN_FLAGS = ("--format", "json")

# locality: q^M <= 64, so the scan is negligible and the time goes to the
# recovery-set search, minimal-set enumeration and exact packing.
LOCALITY = (
    ("all-subspaces", "gf(3)", 3, 2, 1),
    ("std-par", "gf(2)", 5, 2, 1),
    ("std-full", "gf(2)", 4, 2, 2),
    ("all-subspaces", "gf(4)", 3, 2, 1),
    ("spread", "gf(4)", 4, 2, 1),
    ("spread", "gf(2)", 6, 2, 1),
    ("all-subspaces", "gf(2)", 4, 2, 1),
)
LOCALITY_FLAGS = ("--availability", "--skip-weights", "--skip-distance", "--format", "json")

# verify: every construction, the only workload that reaches the
# verification, designs and dual layers. from-blocks gets a seeded block set.
VERIFY = (
    ("std-full", "--field", "gf(2)", "-t", "2", "-M", "4", "-b", "2"),
    ("std-par", "--field", "gf(2)", "-M", "6", "-b", "3"),
    ("all-subspaces", "--field", "gf(3)", "-M", "3", "-b", "2"),
    ("all-subspaces", "--field", "gf(4)", "-M", "3", "-b", "2"),
    ("all-subspaces", "--field", "gf(2)", "-M", "4", "-b", "2"),
    ("spread", "--field", "gf(2)", "-M", "10", "-b", "5"),
)
BLOCKS_BASE = (4, 2)  # from-blocks: a seeded linear image of the q=2 spread, M=4, b=2

# repair: one closed-loop client over two codes, one even and one odd q.
REPAIR = (("gf(2)", 8, 2), ("gf(3)", 6, 2))
CORRUPT_EVERY = 9  # one corrupted request per 9 clean ones: a tenth of the stream


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- environment -------------------------------------------------------------


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
    }


def fresh_import():
    """Import the package from the checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {
        name: importlib.import_module(f"{PACKAGE}.{name}")
        for name in ("arraycode", "cli", "gf", "linalg", "locality")
    }
    pkg = sys.modules[PACKAGE]
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        fail_setup(f"imported {PACKAGE} from {pkg.__file__}, not from {SRC}")
    mods["package"] = pkg
    return mods


def call_cli(mods, argv):
    """Run cli.main in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mods["cli"].main(list(argv))
    return rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- workloads: set-up and operations ------------------------------------------
#
# An operation is (label, run, check): run() calls the package and returns
# its output; check(output) returns None when the output is right, else a
# reason. Only run() is inside the per-operation latency.


def bundle_ops(mods, work: Path, specs, flags):
    ops = []
    for construction, field, M, b, t in specs:
        label = f"{construction} {field} M={M} b={b}" + (f" t={t}" if t != 1 else "")
        path = work / (label.replace(" ", "_").replace("(", "").replace(")", "") + ".bundle")
        argv = ["construct", construction, "--field", field, "-M", str(M), "-b", str(b),
                "-t", str(t), "-o", str(path)]
        rc, _ = call_cli(mods, argv)
        if rc != 0:
            raise RuntimeError(f"construct {label} exited {rc}")
        ops.append((f"analyze {label}", ("analyze", str(path)) + flags))
    return ops


def gf2_rank(rows: list[int]) -> int:
    rows = list(rows)
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def seeded_blocks(mods, rng: random.Random, work: Path) -> Path:
    """Blocks file: the q=2 spread's blocks under a random invertible map, shuffled.

    A linear image of a spread is a spread, so the verify suite must pass and
    its weight histogram must still count all 2^M messages.
    """
    M, b = BLOCKS_BASE
    F = mods["gf"].field_new(2)
    spread = mods["arraycode"].construction_spread(F, M, b)
    while True:
        images = [rng.getrandbits(M) for _ in range(M)]  # image of basis vector i
        if gf2_rank(images) == M:
            break
    blocks = []
    for sub in spread.subspaces:
        rows = []
        for vec in sub.basis:
            acc = 0
            for i, x in enumerate(vec):
                if x:
                    acc ^= images[i]
            rows.append(" ".join(str((acc >> k) & 1) for k in range(M)))
        blocks.append(f"2 {len(rows)} {M}\n" + "\n".join(rows) + "\n")
    rng.shuffle(blocks)
    path = work / "blocks.txt"
    path.write_text("\n".join(blocks))
    return path


def check_blocks(rc: int, text: str, M: int):
    if rc != 0:
        return f"exit {rc}"
    doc = json.loads(text)
    measured = {c["id"]: c["measured"] for c in doc["checks"]}
    hist = ast.literal_eval(measured["weight-distribution"])
    if sum(hist.values()) != 2**M:
        return f"weight histogram sums to {sum(hist.values())}, not {2**M}"
    return None


def setup(workload: str, mods, work: Path, seed: int):
    """Everything built before the timed phase; returns the operation list."""
    goldens = json.loads(GOLDENS.read_text())
    if workload in ("scan", "locality"):
        specs, flags = (SCAN, SCAN_FLAGS) if workload == "scan" else (LOCALITY, LOCALITY_FLAGS)
        return [golden_op(mods, label, argv, goldens) for label, argv in bundle_ops(mods, work, specs, flags)]
    if workload == "verify":
        ops = [golden_op(mods, "verify " + " ".join(a), ("verify",) + a, goldens) for a in VERIFY]
        path = seeded_blocks(mods, random.Random(seed), work)
        argv = ("verify", "from-blocks", "--field", "gf(2)", "--blocks", str(path), "--format", "json")
        ops.append(("verify from-blocks (seeded)", lambda: call_cli(mods, argv),
                    lambda out: check_blocks(*out, BLOCKS_BASE[0])))
        return ops
    return [mods["arraycode"].construction_spread(mods["gf"].parse_field(field), M, b)
            for field, M, b in REPAIR]


def golden_op(mods, label, argv, goldens):
    want = goldens[label]

    def check(out):
        rc, text = out
        if rc != want["exit"]:
            return f"exit {rc}, golden {want['exit']}"
        if digest(text) != want["sha256"]:
            return "stdout differs from the golden"
        return None

    return (label, lambda: call_cli(mods, argv), check)


def repair_requests(mods, codes, rng: random.Random, rounds: int):
    """Seeded request stream: each round asks for every (code, column) once,
    in random order, plus one corrupted request per CORRUPT_EVERY clean ones."""
    Mat = mods["linalg"].Mat
    encode = mods["arraycode"].encode
    targets = [(c, j) for c in range(len(codes)) for j in range(codes[c].n)]
    stream = []
    for _ in range(rounds):
        batch = [(c, j, False) for c, j in targets]
        batch += [(*rng.choice(targets), True) for _ in range(math.ceil(len(targets) / CORRUPT_EVERY))]
        rng.shuffle(batch)
        stream += batch
    requests = []
    for c, j, corrupt in stream:
        code = codes[c]
        q = code.field.q
        word = encode(code, [rng.randrange(q) for _ in range(code.M)])
        rows = [list(r) for r in word.rows]
        expected = tuple(r[j] for r in rows)
        for r in rows:
            r[j] = 0  # the erased column carries no information
        if corrupt:
            m = rng.choice([x for x in range(code.n) if x != j])
            i = rng.randrange(code.b)
            rows[i][m] = rng.choice([v for v in range(q) if v != rows[i][m]])
        array = Mat.from_rows(code.field, [tuple(r) for r in rows], code.n)
        requests.append((c, j, corrupt, array, expected))
    return requests


def repair_ops(mods, codes, requests):
    inconsistent = mods["package"].Inconsistent
    ops = []
    for c, j, corrupt, array, expected in requests:
        code = codes[c]

        def run(code=code, array=array, j=j):
            try:
                return mods["locality"].repair(code, array, j).column
            except inconsistent:
                return "inconsistent"

        if corrupt:
            def check(out):
                return None if out == "inconsistent" else "corrupted array was repaired"
        else:
            def check(out, expected=expected):
                return None if out == expected else f"restored {out}, encoded {expected}"

        ops.append((f"repair {code.provenance} column {j + 1}" + (" corrupted" if corrupt else ""), run, check))
    return ops


def repeat_share(requests) -> float:
    seen = set()
    repeats = 0
    for c, j, *_ in requests:
        repeats += (c, j) in seen
        seen.add((c, j))
    return repeats / len(requests)


# -- timed phase ---------------------------------------------------------------


class Outcome:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{label}: {reason}")


def run_phase(ops, passes: int, outcome: Outcome, reference: bool = True):
    """Run every operation `passes` times.

    Returns (wall, cpu, raw wall). wall and cpu are summed over the
    operation slots (the call plus its output check), in reference seconds
    (see refclock.py) or, with reference=False, in measured seconds with
    nothing else running. raw wall is the measured wall time of the phase.
    """
    start = time.perf_counter()
    with RefClock(sampling=reference) as clock:
        for _ in range(passes):
            for label, run, check in ops:
                # a mark is taken after the clock reads at a start and before
                # them at an end, so a kernel sample is never subtracted from
                # an interval that does not hold it
                t0, c0 = time.perf_counter(), time.process_time()
                m0 = clock.mark()
                latency = None
                try:
                    out = run()
                    m_lat = clock.mark()
                    latency = time.perf_counter() - t0
                    reason = check(out)
                except Exception as exc:  # an unexpected error is a failed operation
                    reason = f"raised {type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                m1 = clock.mark()
                t1, c1 = time.perf_counter(), time.process_time()
                if latency is None:
                    latency, m_lat = t1 - t0, m1
                clock.add((m0, m1, t1 - t0), (m0, m1, c1 - c0), (m0, m_lat, latency))
                outcome.add(label, reason)
    raw = time.perf_counter() - start
    slots = clock.converted()
    outcome.latencies += [latency for _, _, latency in slots]
    return sum(w for w, _, _ in slots), sum(c for _, c, _ in slots), raw


def tail(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- per-layer metrics from the trace -----------------------------------------------


def layer_metrics(tracer) -> dict:
    groups = spans.GROUPS
    selfs = tracer.self_times()
    m = {"gf.ops": metric(tracer.gf_ops, "count")}
    for layer in spans.TRACED_LAYERS + ("bench",):
        m[f"{layer}.self_s"] = metric(selfs.get(layer, 0.0), "s")

    def outer(group):
        return tracer.outermost(groups[group])

    def ratio(a, b):
        return a / b if b else 0.0

    for group in ("linalg.from_span", "linalg.null_space", "linalg.solve", "arraycode.scan",
                  "arraycode.dual", "arraycode.dual_distance", "arraycode.bundle",
                  "arraycode.construct", "locality.node_search", "locality.symbol_search",
                  "locality.availability", "locality.packing", "locality.pairing",
                  "locality.repair", "designs.build", "designs.verify"):
        m[f"{group}.s"] = metric(tracer.duration(outer(group)), "s")
    for group in ("linalg.from_span", "linalg.contains", "locality.node_search",
                  "locality.symbol_search", "locality.packing"):
        m[f"{group}.calls"] = metric(len(outer(group)), "count")

    contains = outer("linalg.contains")
    m["linalg.contains.hit_ratio"] = metric(ratio(sum(tracer.flag[i] for i in contains), len(contains)), "ratio")

    scans = outer("arraycode.scan")
    codewords = sum(tracer.value[i] for i in scans)
    m["arraycode.scan.codewords"] = metric(codewords, "count")
    m["arraycode.scan.codewords_per_s"] = metric(ratio(codewords, m["arraycode.scan.s"]["value"]), "1/s")

    searches = groups["locality.node_search"] + groups["locality.symbol_search"]
    outer_contains = set(contains)
    tests = [i for i in tracer.under(groups["linalg.contains"], searches) if i in outer_contains]
    m["locality.tests_per_search"] = metric(ratio(len(tests), len(tracer.outermost(searches))), "ratio")

    packings = outer("locality.packing")
    m["locality.packing.pool"] = metric(ratio(sum(tracer.value[i] for i in packings), len(packings)), "count")
    m["locality.packing.exact_ratio"] = metric(ratio(sum(tracer.flag[i] for i in packings), len(packings)), "ratio")
    m["verification.repeat_ratio"] = metric(ratio(tracer.suite_repeats, tracer.suite_calls), "ratio")
    return m


def bench_span(tracer, run):
    """Root each operation in a bench span so harness time is attributed too."""

    def traced():
        with tracer.span("bench.op"):
            return run()

    return traced


# -- main --------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def build(workload: str, work: Path, seed: int, rounds: int):
    """Import and set up once; returns (modules, ops, passes over ops, report extras).

    The repair stream already holds every round, so it is run once.
    """
    mods = fresh_import()
    built = setup(workload, mods, work, seed)
    if workload != "repair":
        return mods, built, rounds, {}
    requests = repair_requests(mods, built, random.Random(seed), rounds)
    return mods, repair_ops(mods, built, requests), 1, {"repeated_target_share": repeat_share(requests)}


def measure_setups(workload: str, work: Path, seed: int) -> list[float]:
    """Set-up times in reference seconds, each from a fresh import."""
    with RefClock() as clock:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            m0 = clock.mark()
            setup(workload, fresh_import(), work, seed)
            m1 = clock.mark()
            clock.add((m0, m1, time.perf_counter() - t0))
    return [s for (s,) in clock.converted()]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        fail_setup(f"no package source at {SRC / PACKAGE}; run from the root of a checkout")
    if not GOLDENS.is_file():
        fail_setup(f"missing {GOLDENS}")
    os.environ.pop("SUBSPACE_LRC_LIMIT", None)  # it changes which checks are skipped
    sys.path.insert(0, str(SRC))
    rounds = max(1, round(ROUNDS[args.workload] * args.seconds / NOMINAL_SECONDS))
    if args.trace:
        rounds = max(1, round(rounds / TRACE_SHARE))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        setups = [] if args.trace else measure_setups(args.workload, work, args.seed)
        mods, ops, passes, extras = build(args.workload, work, args.seed, rounds)
        outcome = Outcome()
        report = {"workload": args.workload, **environment(args.seed), "rounds": rounds, **extras}
        if args.trace:
            # both passes in measured seconds, with no kernel samples in the spans
            untraced, _, _ = run_phase(ops, passes, outcome, reference=False)
            tracer = spans.Tracer()
            spans.instrument(tracer, mods["package"])
            with tracer.span("bench.phase") as phase:
                traced, _, _ = run_phase([(label, bench_span(tracer, run), check) for label, run, check in ops],
                                         passes, outcome, reference=False)
            metrics = layer_metrics(tracer)
            metrics["trace.wall_s"] = metric(tracer.end[phase] - tracer.start[phase], "s")
            metrics["trace.overhead_s"] = metric(traced - untraced, "s")
            metrics["trace.overhead_ratio"] = metric(traced / untraced - 1, "ratio")
            SPANS_DIR.mkdir(exist_ok=True)
            spans_path = SPANS_DIR / f"spans-{args.workload}.tsv.gz"
            tracer.write(str(spans_path))
            report["spans"] = {"count": len(tracer.start), "path": str(spans_path.relative_to(ROOT))}
        else:
            wall, cpu, report["raw_wall_s"] = run_phase(ops, passes, outcome)
            p50 = statistics.median(outcome.latencies)
            tail_value, tail_pct = tail(outcome.latencies)
            report["latency_tail"] = {"percentile": tail_pct, "samples": len(outcome.latencies)}
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "wall_s": metric(wall, "s"),
                "cpu_s": metric(cpu, "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "latency_p50_ms": metric(p50 * 1000, "ms"),
                "latency_tail_ms": metric(tail_value * 1000, "ms"),
            }
        report["failed_ratio"] = {"value": outcome.failed / outcome.attempted,
                                  "failed": outcome.failed, "attempted": outcome.attempted}
        report["failures"] = outcome.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
