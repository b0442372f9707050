"""Golden pins for `analyze`'s skip flags: stdout, stderr and exit code.

Each case runs `cli.main` in-process on a bundle written by `construct` into
a temporary directory. The cases cross no skip flag, --skip-weights,
--skip-distance and both with and without a --limit below q^M, in every
output format. The locality cases render --locality and --availability, the
latter also with a --limit below the helper-set count, as text and CSV. The
expected bytes are in tests/golden/analyze.json. After a deliberate output
change, rewrite it with

    PYTHONPATH=src python tests/test_analyze_golden.py

and say in the change log which cases changed and why.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from subspace_lrc import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "analyze.json"

# name -> (construct arguments, a --limit below q^M)
BUNDLES = {
    "spread-q2-M4-b2": (("spread", "-M", "4", "-b", "2"), "8"),
    "all-subspaces-q3-M3-b2": (("all-subspaces", "--field", "gf(3)", "-M", "3", "-b", "2"), "20"),
}
SKIPS = {
    "none": (),
    "skip-weights": ("--skip-weights",),
    "skip-distance": ("--skip-distance",),
    "skip-both": ("--skip-weights", "--skip-distance"),
}
CASES = {
    f"{bundle}-{skip}{'-limit' if limited else ''}-{fmt}": (
        bundle,
        (*flags, *(("--limit", BUNDLES[bundle][1]) if limited else ()), "--format", fmt),
    )
    for bundle in BUNDLES
    for skip, flags in SKIPS.items()
    for limited in (False, True)
    for fmt in ("json", "text", "csv")
}
# locality rendering on the spread: name -> analyze flags
LOCALITY = {
    "locality": ("--locality",),
    "availability": ("--availability",),
    "availability-limit": ("--availability", "--limit", "8"),
}
CASES.update(
    {
        f"spread-q2-M4-b2-{name}-{fmt}": ("spread-q2-M4-b2", (*flags, "--format", fmt))
        for name, flags in LOCALITY.items()
        for fmt in ("text", "csv")
    }
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_bundles(directory: Path) -> dict[str, str]:
    paths = {}
    for name, (args, _) in BUNDLES.items():
        paths[name] = str(directory / f"{name}.bundle")
        assert run(["construct", *args, "-o", paths[name]])["exit"] == 0
    return paths


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    return write_bundles(tmp_path_factory.mktemp("analyze"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_matches_golden(name, bundles):
    bundle, argv = CASES[name]
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run(["analyze", bundles[bundle], *argv]) == expected


@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_skip_weights_output_is_independent_of_jobs(bundle, bundles):
    argv = ["analyze", bundles[bundle], "--skip-weights", "--format", "text"]
    assert run([*argv, "--jobs", "2"]) == run([*argv, "--jobs", "1"])


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_bundles(Path(tmp))
        doc = {name: run(["analyze", paths[b], *argv]) for name, (b, argv) in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
