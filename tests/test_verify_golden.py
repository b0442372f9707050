"""Golden ladder for `verify`: stdout and exit codes, byte for byte.

Each case runs `cli.main` in-process and compares stdout, stderr and the
exit code with the files under tests/golden/verify/: `<name>.txt` (or
`<name>.json` for the JSON cases) holds stdout, `exits.json` the exit code
and stderr of every case. After a deliberate output change, rewrite them with

    PYTHONPATH=src python tests/test_verify_golden.py

and say in the change log which goldens changed and why.

`all-subspaces-q2-M6-b2.txt`, `all-subspaces-q2-M6-b3.txt`,
`spread-q2-M15-b5.txt` and `spread-q2-M16-b4.txt` are not cases here: their runs take seconds, so CI's
"Source size" step compares them instead. Rewrite each with the stdout of
its command, for example

    PYTHONPATH=src python -m subspace_lrc.cli verify all-subspaces -M 6 -b 2
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from subspace_lrc import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify"

AS = ("all-subspaces", "--field")
CASES = {
    "all-subspaces-q2-M3-b2": (*AS, "gf(2)", "-M", "3", "-b", "2"),
    "all-subspaces-q3-M3-b2": (*AS, "gf(3)", "-M", "3", "-b", "2"),
    "all-subspaces-q4-M3-b2": (*AS, "gf(4)", "-M", "3", "-b", "2"),
    "all-subspaces-q2-M3-b1": (*AS, "gf(2)", "-M", "3", "-b", "1"),
    "all-subspaces-q2-M4-b3": (*AS, "gf(2)", "-M", "4", "-b", "3"),
    "all-subspaces-q2-M3-b2-packing-cap-5": (*AS, "gf(2)", "-M", "3", "-b", "2", "--packing-cap", "5"),
    "all-subspaces-q2-M3-b2-no-availability": (*AS, "gf(2)", "-M", "3", "-b", "2", "--no-availability"),
    "all-subspaces-q2-M3-b2-limit-10": (*AS, "gf(2)", "-M", "3", "-b", "2", "--limit", "10"),
    # node availability over the candidate cap, exact from the pair family's counting bound
    "all-subspaces-q2-M5-b2": (*AS, "gf(2)", "-M", "5", "-b", "2"),
    "spread-q2-M4-b2": ("spread", "-M", "4", "-b", "2"),
    "spread-q2-M4-b2-desarguesian": ("spread", "-M", "4", "-b", "2", "--method", "desarguesian"),
    "spread-q2-M6-b2": ("spread", "-M", "6", "-b", "2"),
    "spread-q2-M2-b2": ("spread", "-M", "2", "-b", "2"),
    "spread-q2-M6-b3-limit-20": ("spread", "-M", "6", "-b", "3", "--limit", "20"),
    "std-par-q2-M6-b3": ("std-par", "-M", "6", "-b", "3"),
    "std-par-q2-M5-b2": ("std-par", "-M", "5", "-b", "2"),
    "std-par-q3-M4-b2": ("std-par", "--field", "gf(3)", "-M", "4", "-b", "2"),
    "std-par-q2-M6-b3-limit-20": ("std-par", "-M", "6", "-b", "3", "--limit", "20"),
    "std-full-q2-t1-M4-b2": ("std-full", "-t", "1", "-M", "4", "-b", "2"),
    "std-full-q2-t2-M4-b2": ("std-full", "-t", "2", "-M", "4", "-b", "2"),
    "std-full-q2-t2-M4-b2-limit-10": ("std-full", "-t", "2", "-M", "4", "-b", "2", "--limit", "10"),
    "std-full-q2-t2-M4-b2-no-availability": ("std-full", "-t", "2", "-M", "4", "-b", "2", "--no-availability"),
    "from-blocks-q2-M4-b2": ("from-blocks", "--blocks", "{golden}/blocks.txt"),
    "from-blocks-q2-M4-b2-limit-8": ("from-blocks", "--blocks", "{golden}/blocks.txt", "--limit", "8"),
    # one whole-space block, and e1, e2, e3, e1+e2: a node no other column recovers
    "from-blocks-q2-M2-b2-one-block": ("from-blocks", "--blocks", "{golden}/blocks-one.txt"),
    "from-blocks-q2-M3-b1-unrecoverable": ("from-blocks", "--blocks", "{golden}/blocks-unrecoverable.txt"),
}
# the first five instances are also pinned in JSON
for _name in list(CASES)[:5]:
    CASES[_name + ".json"] = (*CASES[_name], "--format", "json")


def stdout_file(name: str) -> Path:
    return GOLDEN / (name if name.endswith(".json") else name + ".txt")


def run_case(argv):
    argv = ["verify", *(a.replace("{golden}", str(GOLDEN)) for a in argv)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_matches_golden(name):
    code, out, err = run_case(CASES[name])
    exits = json.loads((GOLDEN / "exits.json").read_text(encoding="utf-8"))
    assert {"exit": code, "stderr": err} == exits[name]
    assert out == stdout_file(name).read_text(encoding="utf-8")


def regenerate() -> None:
    exits = {}
    for name in sorted(CASES):
        code, out, err = run_case(CASES[name])
        stdout_file(name).write_text(out, encoding="utf-8")
        exits[name] = {"exit": code, "stderr": err}
    text = json.dumps(exits, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exits.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
