"""Property test of settled worst availability on random block sets.

Over gf(2) and gf(3), a random set of distinct b-dim blocks spanning
GF(q)^M gets from `locality._worst_availability` the (value, exact, sets)
of `reference.reference_worst_availability`, which packs every pool, at
packing caps on both sides of its candidate count. Test-only dependency:
skipped where hypothesis is missing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from subspace_lrc.limits import DEFAULT_PACKING_CAP  # noqa: E402
from subspace_lrc.locality import _worst_availability  # noqa: E402
from reference import reference_worst_availability  # noqa: E402
from test_availability_settle import groups_of  # noqa: E402
from test_certificate_property import block_sets  # noqa: E402


# hypothesis's report of a falsifying example raises a DeprecationWarning from
# mypy_extensions; under filterwarnings = error that would hide the example
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(block_sets(), st.sampled_from([0, 5, 40, DEFAULT_PACKING_CAP]))
def test_settled_availability_equals_every_pool_packed(code, cap):
    groups = groups_of(code)
    if groups is None:
        return
    got = _worst_availability(code, groups, exact_cap=cap, limit=None)
    assert got == reference_worst_availability(code, groups, exact_cap=cap, limit=None)
