"""Property tests of the matching behind r <= 2 availability and of the
factor-critical test that settles targets, against networkx.

Test-only dependencies: skipped where hypothesis or networkx is missing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

# hypothesis's report of a falsifying example raises a DeprecationWarning from
# mypy_extensions; under filterwarnings = error that would hide the example
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

from hypothesis import given, settings, strategies as st  # noqa: E402

from subspace_lrc.locality import _factor_critical, _matching_value  # noqa: E402

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


# --- factor-critical graphs --------------------------------------------------------


@st.composite
def ear_graphs(draw):
    """(vertices, edges): an odd cycle grown by ears of odd length, so often
    factor-critical (Lovasz: exactly the graphs with an odd ear
    decomposition), then random extra edges, a second component, or an ear
    of even length that may spoil it; a single vertex among them."""
    if draw(st.integers(0, 9)) == 0:
        return [0], []
    length = draw(st.sampled_from([3, 5, 7]))
    vertices = list(range(length))
    edges = [(i, (i + 1) % length) for i in range(length)]
    for _ in range(draw(st.integers(0, 3))):
        ends = draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2))
        inner = list(range(len(vertices), len(vertices) + draw(st.sampled_from([0, 1, 2, 4]))))
        if ends[0] == ends[1] and len(inner) < 2:
            continue
        path = [ends[0], *inner, ends[1]]
        vertices += inner
        edges += list(zip(path, path[1:]))
    if draw(st.booleans()):
        extra = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(extra, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        base = len(vertices)
        vertices += [base, base + 1, base + 2]
        edges += [(base, base + 1), (base + 1, base + 2), (base + 2, base)]
    edges = list({frozenset(e): e for e in edges if e[0] != e[1]}.values())
    labels = draw(st.permutations(vertices))
    ordered = draw(st.permutations(edges))
    return [labels[v] for v in draw(st.permutations(vertices))], [(labels[a], labels[c]) for a, c in ordered]


def networkx_factor_critical(vertices, edges) -> bool:
    """G less any one vertex has a perfect matching, by brute force."""
    graph = nx.Graph(edges)
    graph.add_nodes_from(vertices)
    for v in vertices:
        rest = graph.copy()
        rest.remove_node(v)
        if 2 * len(nx.max_weight_matching(rest, maxcardinality=True)) != rest.number_of_nodes():
            return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ear_graphs())
def test_factor_critical_equals_brute_force(graph):
    vertices, edges = graph
    assert _factor_critical(vertices, edges) == networkx_factor_critical(vertices, edges)


def test_factor_critical_small_cases():
    assert _factor_critical([0], [])
    assert not _factor_critical([0, 1], [(0, 1)])
    assert _factor_critical(range(5), [(i, (i + 1) % 5) for i in range(5)])
    # two triangles: odd, but G less a vertex of one leaves the other odd
    triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    assert not _factor_critical(range(6), triangles)
    assert not _factor_critical(range(7), triangles + [(6, 0)])
    # a triangle and an isolated vertex
    assert not _factor_critical(range(4), triangles[:3])
