"""Property tests of the packed linear solver against tuple linear algebra.

linalg.solve and the repair decoder are one routine, _Combiner; on every
drawn system, dependent vectors included, it must give the free-variables-0
solution of reference.reference_solve. Test-only dependency: skipped where
hypothesis is missing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

# hypothesis's report of a falsifying example raises a DeprecationWarning from
# mypy_extensions; under filterwarnings = error that would hide the example
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

from hypothesis import given, settings, strategies as st  # noqa: E402

from subspace_lrc.gf import extension_new, field_new  # noqa: E402
from subspace_lrc.linalg import Mat, _Combiner, _layout, solve, vec_mat  # noqa: E402

from reference import reference_solve  # noqa: E402

FIELDS = [field_new(2), field_new(3), field_new(2, 2), field_new(3, 2), extension_new(field_new(2, 2), 2)]


@st.composite
def systems(draw):
    """(field, vectors, y): random vectors mixed with zero, repeated and
    combined ones, so most systems are dependent; y is a combination of the
    vectors or, half the time, drawn outright and often outside their span."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 6))
    elements = st.integers(0, field.q - 1)
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 3)) if vectors else 0
        if kind == 0:
            vectors.append(tuple(draw(st.lists(elements, min_size=n, max_size=n))))
        elif kind == 1:
            vectors.append((0,) * n)
        elif kind == 2:
            vectors.append(draw(st.sampled_from(vectors)))
        else:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            c, d = draw(elements), draw(elements)
            vectors.append(tuple(field.add(field.mul(c, x), field.mul(d, y)) for x, y in zip(a, b)))
    if vectors and draw(st.booleans()):
        x = draw(st.lists(elements, min_size=len(vectors), max_size=len(vectors)))
        y = vec_mat(tuple(x), Mat(field, tuple(vectors), n))
    else:
        y = tuple(draw(st.lists(elements, min_size=n, max_size=n)))
    return field, vectors, y


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(systems())
def test_solve_and_combiner_equal_the_tuple_reference(system):
    field, vectors, y = system
    m = Mat(field, tuple(vectors), len(y)).transpose()
    want = reference_solve(field, m.rows, m.cols, y)
    pack = _layout(field).pack
    assert _Combiner(field, len(y), [pack(v) for v in vectors]).solve(y) == want
    assert solve(m, y) == want
