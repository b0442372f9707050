"""Property test of the locality certificate on random full-width block sets.

Over gf(2) and gf(3), a random set of distinct b-dim blocks spanning
GF(q)^M gets from `verification._certificate` either no answer or the
values of the lex-first walk, and never an answer when the walk finds a
node with no recovery set. It may decline where a pair exists: a node j
with the witness {a, c} is missed when neither U_j + U_a holds U_c nor
U_j + U_c holds U_a, and the walk then measures it. Test-only dependency:
skipped where hypothesis is missing.
"""

from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from subspace_lrc.arraycode import construction_from_blocks  # noqa: E402
from subspace_lrc.designs import point_incidence  # noqa: E402
from subspace_lrc.errors import NoRecovery  # noqa: E402
from subspace_lrc.gf import field_new  # noqa: E402
from subspace_lrc.linalg import Subspace, subspace_sum  # noqa: E402
from subspace_lrc.verification import _certificate, _Measure  # noqa: E402
from test_locality_certificate import walk_values  # noqa: E402

FIELDS = {2: field_new(2), 3: field_new(3)}


def widen(field, M, b, vectors):
    """The span of vectors, grown to dim b by unit vectors outside it."""
    s = Subspace.from_span(field, M, vectors)
    for c in range(M):
        if s.dim < b:
            s = Subspace.from_span(field, M, [*s.basis, tuple(int(i == c) for i in range(M))])
    return s


@st.composite
def block_sets(draw):
    """Distinct b-dim blocks of GF(q)^M: drawn ones, then unit-vector blocks
    for the directions they miss, so that the blocks span."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    M = draw(st.integers(2, 4))
    b = draw(st.integers(1, M - 1))
    vector = st.tuples(*[st.integers(0, field.q - 1)] * M)
    count = draw(st.integers(3, 9))
    blocks = [widen(field, M, b, draw(st.lists(vector, min_size=b, max_size=b))) for _ in range(count)]
    for c in range(M):
        unit = tuple(int(i == c) for i in range(M))
        total = reduce(subspace_sum, blocks)
        if Subspace.from_span(field, M, [*total.basis, unit]).dim > total.dim:
            blocks.append(widen(field, M, b, [unit]))
    return construction_from_blocks(field, list(dict.fromkeys(blocks)))


# hypothesis's report of a falsifying example raises a DeprecationWarning from
# mypy_extensions; under filterwarnings = error that would hide the example
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(block_sets())
def test_certificate_equals_the_walk_or_declines(code):
    cert = _certificate(code, point_incidence(code.subspaces))
    try:
        want = walk_values(code)
    except NoRecovery:
        assert cert is None
        return
    loc = _Measure(code).locality
    assert (loc.node, loc.symbol, loc.min_symbol, loc.lone_node) == want
    assert loc.route == ("walk" if cert is None else "certificate")
    if cert is not None:
        assert (cert.node, cert.symbol, cert.min_symbol, cert.lone_node) == want
