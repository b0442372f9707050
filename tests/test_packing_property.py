"""Property tests of the matching behind r <= 2 availability, against networkx.

Test-only dependencies: skipped where hypothesis or networkx is missing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

# hypothesis's report of a falsifying example raises a DeprecationWarning from
# mypy_extensions; under filterwarnings = error that would hide the example
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

from hypothesis import given, settings, strategies as st  # noqa: E402

from subspace_lrc.locality import _matching_value  # noqa: E402

VERTICES = 14


@st.composite
def graphs(draw):
    """Edge lists in a drawn order: random edges plus odd cycles on drawn
    vertices, so cycles share vertices and blossoms nest inside blossoms."""
    edges = set()
    for _ in range(draw(st.integers(0, 4))):
        length = draw(st.sampled_from([3, 5, 7]))
        cycle = draw(st.lists(st.integers(0, VERTICES - 1), min_size=length, max_size=length, unique=True))
        edges |= {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
    pairs = st.tuples(st.integers(0, VERTICES - 1), st.integers(0, VERTICES - 1)).filter(lambda e: e[0] != e[1])
    edges |= {frozenset(e) for e in draw(st.lists(pairs, max_size=20))}
    ordered = draw(st.permutations(sorted(tuple(sorted(e)) for e in edges)))
    return [e if draw(st.booleans()) else e[::-1] for e in ordered]


def networkx_matching(edges) -> int:
    return len(nx.max_weight_matching(nx.Graph(edges), maxcardinality=True))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs())
def test_matching_size_equals_networkx(edges):
    assert _matching_value(edges) == networkx_matching(edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs(), st.lists(st.integers(0, VERTICES - 1), unique=True, max_size=4))
def test_singletons_are_pendant_edges(edges, singles):
    # taking {a} is matching a to a fresh vertex of its own
    pool = [frozenset({a}) for a in singles] + [frozenset(e) for e in edges]
    pendant = edges + [(a, ("own", a)) for a in singles]
    assert _matching_value(pool) == networkx_matching(pendant)
