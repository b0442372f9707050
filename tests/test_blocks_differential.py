"""`verify from-blocks` and `analyze --locality` against each other and the references.

Both commands measure a user's block set by their own routes. On small
drawn block sets over gf(2), gf(3) and gf(4) (one block, b = M, blocks that
meet, blocks with a node no other column recovers) both must exit 0 and
agree on the distance, the weights and both localities; the weights must
match the per-symbol reference scan of `tests/test_arraycode.py`, and the
localities and verify's dual distance the reference walks of
`tests/test_subset_walk.py`. `analyze` reports no dual distance.

Test-only dependency: skipped where hypothesis is missing.
"""

import ast
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

# hypothesis's report of a falsifying example raises a DeprecationWarning from
# mypy_extensions; under filterwarnings = error that would hide the example
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from subspace_lrc import cli  # noqa: E402
from subspace_lrc.arraycode import construction_from_blocks  # noqa: E402
from subspace_lrc.linalg import Subspace, format_matrix, subspace_sum  # noqa: E402
from reference import contains_vector  # noqa: E402
from test_arraycode import reference_scan_range  # noqa: E402
from test_subset_walk import FIELDS, reference_dual_distance, reference_witness_sets  # noqa: E402


# (q, M, b) with at most 64 codewords, drawn uniformly
SHAPES = [(q, M, b) for q in (2, 3, 4) for M in range(1, 5 if q == 2 else 4) for b in range(1, M + 1)]


@st.composite
def block_sets(draw):
    """(q, M, b, spanning vectors of each block)."""
    q, M, b = draw(st.sampled_from(SHAPES))
    vector = st.tuples(*[st.integers(0, q - 1)] * M)
    blocks = draw(st.lists(st.lists(vector, min_size=b, max_size=b), min_size=1, max_size=6))
    return q, M, b, blocks


def unit(M, i):
    return tuple(int(c == i) for c in range(M))


def widen(field, M, b, vectors):
    """The span of vectors, grown to dimension b by the first unit vectors outside it."""
    s = Subspace.from_span(field, M, vectors)
    for i in range(M):
        if s.dim < b and not contains_vector(s, unit(M, i)):
            s = Subspace.from_span(field, M, s.basis + (unit(M, i),))
    return s


def block_set(q, M, b, drawn):
    """Distinct b-dim blocks from the drawn vectors, plus a block through each
    unit vector their sum misses, so that they span GF(q)^M."""
    field = FIELDS[q]
    blocks = list(dict.fromkeys(widen(field, M, b, vectors) for vectors in drawn))
    for i in range(M):
        if not contains_vector(reduce(subspace_sum, blocks), unit(M, i)):
            blocks.append(widen(field, M, b, [unit(M, i)]))
    return field, blocks


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def reports(field, blocks):
    """verify's checks by id and analyze's document, each from its own command."""
    with tempfile.TemporaryDirectory() as tmp:
        path, bundle = Path(tmp) / "blocks.txt", str(Path(tmp) / "code.bundle")
        path.write_text("\n".join(format_matrix(blk.matrix()) for blk in blocks), encoding="ascii")
        common = ("--field", field.descriptor(), "--blocks", str(path))
        verify = run(["verify", "from-blocks", *common, "--format", "json"])
        assert verify[0] == 0, verify
        assert run(["construct", "from-blocks", *common, "-o", bundle])[0] == 0
        analyze = run(["analyze", bundle, "--locality", "--format", "json"])
        assert analyze[0] == 0, analyze
    checks = {c["id"]: c for c in json.loads(verify[1])["checks"]}
    return checks, json.loads(analyze[1])


IDENTITY = (2, 2, 2, [[(1, 0), (0, 1)]])
TWO_LINES = (2, 2, 1, [[(1, 0)], [(0, 1)]])
FOUR_LINES = (2, 3, 1, [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)], [(1, 1, 0)]])
MEETING_PLANES = (3, 3, 2, [[(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 0, 1)], [(0, 1, 0), (0, 0, 1)]])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(block_sets())
@example(IDENTITY)
@example(TWO_LINES)
@example(FOUR_LINES)
@example(MEETING_PLANES)
@example((4, 3, 3, [[(1, 2, 3)]]))
def test_verify_and_analyze_agree_with_the_references(drawn):
    field, blocks = block_set(*drawn)
    code = construction_from_blocks(field, blocks)
    checks, doc = reports(field, blocks)
    report, locality = doc["report"], doc["locality"]

    hist, best = reference_scan_range(field, code.generator.rows, code.b, code.n, 0, field.q**code.M)
    assert checks["distance"]["measured"] == str(best) and report["distance"] == best
    assert ast.literal_eval(checks["weight-distribution"]["measured"]) == hist
    assert {int(w): c for w, c in report["weight_distribution"].items()} == hist

    targets = [(j, None) for j in range(code.n)] + [(j, i) for j in range(code.n) for i in range(code.b)]
    found = reference_witness_sets(code, targets, code.n - 1)
    if None in found:
        # nodes come first, and a node with a recoverable symbol set is recoverable
        reason = f"node {found.index(None) + 1} has no recovery set of size <= {code.n - 1}"
        assert locality == {"status": "skipped", "reason": reason}
        for check in ("symbol-locality", "node-locality", "locality-order", "dual-distance-min-symbol"):
            assert (checks[check]["status"], checks[check]["note"]) == ("skipped", reason)
    else:
        r_n = max(len(s) for s in found[: code.n])
        r_s = max(len(s) for s in found[code.n :])
        assert (locality["node_locality"], locality["symbol_locality"]) == (r_n, r_s)
        assert checks["node-locality"]["measured"] == str(r_n)
        assert checks["symbol-locality"]["measured"] == str(r_s)
        assert checks["locality-order"]["status"] == "pass"

    if code.b * code.n == code.M:
        assert (checks["dual-distance"]["status"], checks["dual-distance"]["note"]) == (
            "skipped",
            "dual code is trivial",
        )
    else:
        assert checks["dual-distance"]["measured"] == str(reference_dual_distance(code))
