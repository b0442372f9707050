"""Record the exit code and stdout digest of every fixed benchmark operation.

    python3 perfbench/record_goldens.py

Run it only at a commit whose outputs are known good: the benchmark counts
any later difference from these goldens as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.fresh_import()
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = run.Path(tempfile.mkdtemp(prefix="goldens-", dir=run.WORK_ROOT))
    try:
        fixed = run.bundle_ops(mods, work, run.SCAN, run.SCAN_FLAGS)
        fixed += run.bundle_ops(mods, work, run.LOCALITY, run.LOCALITY_FLAGS)
        fixed += [("verify " + " ".join(a), ("verify",) + a) for a in run.VERIFY]
        goldens = {}
        for label, argv in fixed:
            rc, text = run.call_cli(mods, argv)
            goldens[label] = {"exit": rc, "sha256": run.digest(text)}
            print(f"{label}: exit {rc}", file=sys.stderr)
    finally:
        shutil.rmtree(work)
    run.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
