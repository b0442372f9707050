"""Property tests of repair under a random erasure, against the tuple oracles.

A drawn code (a random full-width gf(2)/gf(3) block set, or a spread) gets a
random message and a random erased column. On the clean array repair must
restore the encoded column, decode the message reference_solve gives for the
surviving symbols, and use the lex-first node recovery set of
reference_witness_sets, a walk over canonical subspace sums that shares no
code with min_node_recovery. On the same code object, so on the plan the
first request built, an array with one surviving symbol changed must give
the outcome of reference_repair. Test-only dependency: skipped where
hypothesis is missing.
"""

from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")

# hypothesis's report of a falsifying example raises a DeprecationWarning from
# mypy_extensions; under filterwarnings = error that would hide the example
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from subspace_lrc.arraycode import construction_from_blocks, construction_spread, encode  # noqa: E402
from subspace_lrc.errors import NoRecovery  # noqa: E402
from subspace_lrc.gf import field_new  # noqa: E402
from subspace_lrc.linalg import Mat, Subspace, subspace_sum  # noqa: E402
from subspace_lrc.locality import repair  # noqa: E402

from reference import reference_solve  # noqa: E402
from test_locality import _outcome, reference_repair  # noqa: E402
from test_subset_walk import reference_witness_sets  # noqa: E402

FIELDS = {2: field_new(2), 3: field_new(3)}
SPREADS = {2: [(4, 2), (6, 2), (6, 3)], 3: [(4, 2)]}


def _full_width(field, M, b, vectors):
    """The span of the drawn vectors, filled up to dimension b with unit vectors."""
    units = [tuple(int(i == c) for i in range(M)) for c in range(M)]
    block = Subspace.from_span(field, M, vectors)
    for u in units:
        if block.dim == b:
            break
        grown = Subspace.from_span(field, M, [*vectors, u])
        if grown.dim > block.dim:
            vectors, block = [*vectors, u], grown
    return block


@st.composite
def codes(draw):
    q = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[q]
    if draw(st.booleans()):
        M, b = draw(st.sampled_from(SPREADS[q]))
        return construction_spread(field, M, b)
    b = draw(st.integers(1, 2))
    M = draw(st.integers(b + 1, 4))
    vector = st.tuples(*[st.integers(0, q - 1)] * M)
    blocks = [
        _full_width(field, M, b, draw(st.lists(vector, min_size=b, max_size=b)))
        for _ in range(draw(st.integers(3, 7)))
    ]
    blocks = list(dict.fromkeys(blocks))
    assume(len(blocks) >= 2 and reduce(subspace_sum, blocks).dim == M)
    return construction_from_blocks(field, blocks)


@st.composite
def erasures(draw):
    """(code, message, erased column, received array with garbage there)."""
    code = draw(codes())
    q = code.field.q
    message = tuple(draw(st.lists(st.integers(0, q - 1), min_size=code.M, max_size=code.M)))
    column = draw(st.integers(0, code.n - 1))
    rows = [list(r) for r in encode(code, message).rows]
    for r in rows:
        r[column] = draw(st.integers(0, q - 1))
    changed = (draw(st.integers(0, code.b - 1)), draw(st.integers(0, code.n - 2)), draw(st.integers(1, q - 1)))
    return code, message, column, rows, changed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(erasures())
def test_repair_under_a_random_erasure(case):
    code, message, column, rows, (i, m, delta) = case
    field = code.field
    array = Mat.from_rows(field, [tuple(r) for r in rows])
    survivors = [(code.column_vector(s, c), rows[s][c]) for c in range(code.n) if c != column for s in range(code.b)]
    decoded = reference_solve(field, [v for v, _ in survivors], code.M, [y for _, y in survivors])
    witness = reference_witness_sets(code, [(column, None)], code.n - 1)[0]
    if witness is None:
        with pytest.raises(NoRecovery):
            repair(code, array, column)
    else:
        got = repair(code, array, column)
        assert got.column == encode(code, message).column(column)
        assert got.message == decoded
        assert got.used.columns == witness
    # one surviving symbol changed, on the plan the clean request built
    m += m >= column
    rows[i][m] = field.add(rows[i][m], delta)
    changed = Mat.from_rows(field, [tuple(r) for r in rows])
    assert _outcome(repair, code, changed, column) == _outcome(reference_repair, code, changed, column)
