"""Self-test of the benchmark, at small sizes (about two minutes).

    python3 perfbench/selftest.py

It fails when:
- a run does not print, as its last line, exactly the metrics BENCHMARK.json
  names for its mode, with their units, or reports a failed operation;
- a traced run's layer self times do not add up to its traced wall time;
- a deliberately corrupted output of any workload is not counted as failed;
- the benchmark prints a result, or exits 0, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_SECONDS = "1"  # one round of each workload
TIMEOUT_S = 180


def bench(args, cwd=run.ROOT):
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int) -> None:
    proc = bench(["--workload", workload, "--seed", "7", "--seconds", SMALL_SECONDS, "--trace", str(trace)])
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    assert not missing and not extra, f"{workload} trace={trace}: missing {missing}, undeclared {extra}"
    for name, unit in declared.items():
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and got[name]["unit"] == unit, (name, got[name])
    if trace:
        layers = sum(got[f"{layer}.self_s"]["value"] for layer in run.spans.TRACED_LAYERS + ("bench",))
        wall = got["trace.wall_s"]["value"]
        assert abs(layers - wall) <= 1e-6 * wall, f"{workload}: self times {layers} vs traced wall {wall}"
    else:
        assert all(got[n]["value"] > 0 for n in declared), f"{workload}: a metric reads 0: {got}"
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {result['attempted']} operations")


def corrupt(out):
    """A wrong output of the same shape: altered stdout, column or verdict."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        return out[0], out[1] + " "
    if out == "inconsistent":
        return (0,)
    return tuple(x + 1 for x in out)


def check_corruption_counted(workload: str) -> None:
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    try:
        mods, ops, _, _ = run.build(workload, work, 7, 1)
        if workload == "repair":
            kinds = {}
            for op in ops:
                kinds.setdefault(op[0].endswith("corrupted"), op)
            ops = list(kinds.values())
            assert len(ops) == 2, "the repair stream needs clean and corrupted requests"
        else:
            ops = random.Random(7).sample(ops, 2)
        bad = [(label, lambda run_=run_: corrupt(run_()), check) for label, run_, check in ops]
        outcome = run.Outcome()
        run.run_phase(bad, 1, outcome)
        assert outcome.failed == outcome.attempted == len(bad), (
            f"{workload}: {outcome.failed} of {outcome.attempted} corrupted outputs counted as failed"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"ok  {workload}: corrupted outputs counted as failed")


def check_bare_directory() -> None:
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "exit 0 without the package"
        assert '"metrics"' not in proc.stdout, "printed a result without the package"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: exit", proc.returncode, "and no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_bare_directory()
    for workload in run.WORKLOADS:
        check_corruption_counted(workload)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
