import dataclasses
import itertools
import random

import pytest

from subspace_lrc.arraycode import (
    ArrayCode,
    code_from_subspaces,
    construction_all_subspaces,
    construction_from_blocks,
    construction_spread,
    construction_std,
    encode,
)
from subspace_lrc.designs import enumerate_grassmannian, gaussian
from subspace_lrc import linalg, locality
from subspace_lrc.errors import (
    BadParams,
    Inconsistent,
    NoRecovery,
    OutOfRange,
    SubspaceCodeError,
    TooLarge,
)
from subspace_lrc.gf import field_new
from subspace_lrc.limits import DEFAULT_PACKING_CAP
from subspace_lrc.linalg import Mat, Subspace, subspace_sum, vec_dot
from subspace_lrc.locality import (
    RecoverySet,
    RepairResult,
    _minimal_recovery_sets,
    _witnesses,
    _worst_availability,
    evaluate_recovery,
    grassmann_pairing,
    locality_profile,
    max_disjoint_packing,
    min_node_recovery,
    repair,
)
from reference import contains_subspace, contains_vector, reference_solve, validate_recovery

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def probe(code, column, row, r, limit=None):
    """Availability of one node (row None) or symbol at helper-set size r."""
    return _worst_availability(code, [[(column, row, r)]], exact_cap=DEFAULT_PACKING_CAP, limit=limit)[0]


def all_codewords(code):
    for msg in itertools.product(range(code.field.q), repeat=code.M):
        yield encode(code, msg)


LOCALITY_CASES = [
    (construction_all_subspaces(F2, 4, 2), 1, 2),
    (construction_all_subspaces(F2, 4, 3), 1, 2),
    (construction_all_subspaces(F3, 3, 2), 1, 2),
    (construction_all_subspaces(F2, 3, 1), 2, 2),
    (construction_spread(F2, 4, 2), 2, 2),
    (construction_spread(F2, 6, 2), 2, 2),
    (construction_spread(F2, 6, 3), 2, 2),
    (construction_std(F2, 1, 3, 6, "par"), 2, 2),
    (construction_std(F2, 1, 2, 5, "par"), 2, 3),
    (construction_std(F3, 1, 2, 4, "par"), 2, 2),
    (construction_std(F2, 2, 2, 4, "full"), 1, 2),
]


@pytest.mark.parametrize("code,r_s,r_n", LOCALITY_CASES)
def test_locality_values(code, r_s, r_n):
    profile = locality_profile(code)
    assert (profile.symbol_locality, profile.node_locality) == (r_s, r_n)


def test_symbol_before_node():
    # a node recovery set recovers each of its symbols, so r_s <= r_n always
    for code in [
        construction_spread(F2, 6, 3),
        construction_std(F2, 1, 2, 5, "par"),
        construction_all_subspaces(F3, 3, 2),
    ]:
        profile = locality_profile(code)
        assert profile.symbol_locality <= profile.node_locality


def test_profile_witnesses_reconstruct_everywhere():
    # every stored witness must evaluate correctly on every codeword
    for code in [
        construction_spread(F2, 4, 2),
        construction_std(F2, 1, 2, 4, "par"),
    ]:
        profile = locality_profile(code)
        for cw in all_codewords(code):
            for j, rset in enumerate(profile.node_witnesses):
                got = evaluate_recovery(code, rset, cw)
                want = tuple(cw.rows[i][j] for i in range(code.b))
                assert got == want
            for i in range(code.b):
                for j in range(code.n):
                    rset = profile.symbol_witnesses[i][j]
                    got = evaluate_recovery(code, rset, cw)
                    assert got == (cw.rows[i][j],)


def test_validate_recovery_and_tampering():
    code = construction_spread(F2, 4, 2)
    rset = min_node_recovery(code, 0)
    assert validate_recovery(code, rset)
    bad = RecoverySet(
        kind=rset.kind,
        column=rset.column,
        row=rset.row,
        columns=rset.columns,
        coefficients=tuple(
            tuple(1 if x == 0 else 0 for x in row) for row in rset.coefficients
        ),
    )
    assert not validate_recovery(code, bad)
    # a functional of the wrong length is rejected, not truncated
    short = RecoverySet(
        kind=rset.kind,
        column=rset.column,
        row=rset.row,
        columns=rset.columns,
        coefficients=tuple(row[:-1] for row in rset.coefficients),
    )
    assert not validate_recovery(code, short)
    # recovery sets may never contain their own target
    self_ref = RecoverySet(
        kind="node", column=0, row=None, columns=(0, 1), coefficients=rset.coefficients
    )
    assert not validate_recovery(code, self_ref)


def test_min_symbol_recovery_zero_symbol():
    # a padded column has an identically zero symbol row; it needs no helpers
    blocks = [
        Subspace.from_span(F2, 3, [(1, 0, 0), (0, 1, 0)]),
        Subspace.from_span(F2, 3, [(0, 0, 1)]),
        Subspace.from_span(F2, 3, [(0, 1, 1), (1, 0, 1)]),
    ]
    from subspace_lrc.arraycode import code_from_subspaces

    code = code_from_subspaces(F2, blocks, 2, 3, "mixed")
    rset = locality_profile(code).symbol_witnesses[1][1]  # second symbol of padded column
    assert rset.size == 0
    for cw in all_codewords(code):
        assert evaluate_recovery(code, rset, cw) == (0,)


def test_no_recovery_when_columns_independent():
    code = construction_from_blocks(
        F2, [Subspace.from_span(F2, 2, [(1, 0)]), Subspace.from_span(F2, 2, [(0, 1)])]
    )
    with pytest.raises(NoRecovery):
        locality_profile(code)
    with pytest.raises(NoRecovery):
        min_node_recovery(code, 1)


def test_availability_frozen_values():
    c1 = locality_profile(construction_all_subspaces(F2, 4, 2), with_availability=True)
    res = c1.symbol_t
    assert res.value == 6 and res.exact  # gaussian(3,1,2) - 1
    node = c1.node_t
    assert node.value == 17 and node.exact

    c1_small = locality_profile(construction_all_subspaces(F2, 3, 2), with_availability=True)
    assert c1_small.symbol_t.value == 2
    assert c1_small.node_t.value == 3

    odd = construction_all_subspaces(F3, 3, 2)
    assert locality_profile(odd, with_availability=True).node_t.value == 6


def test_availability_sets_are_disjoint_and_valid():
    code = construction_all_subspaces(F2, 4, 2)
    res = probe(code, 0, None, 2)
    used = set()
    for s in res.sets:
        assert not (s & used)
        used |= s
        span = None
        for j in s:
            span = code.subspaces[j] if span is None else subspace_sum(span, code.subspaces[j])
        assert contains_subspace(span, code.subspaces[0])
        assert 0 not in s


def test_code_availability_of_a_zero_code_is_rejected():
    zero = ArrayCode(F2, 1, 1, 1, Mat(F2, ((0,),), 1), (Subspace.zero(F2, 1),), "zero")
    with pytest.raises(BadParams, match="^code has no nonzero node$"):
        locality_profile(zero, with_availability=True)
    for kind in ("symbol", "node"):
        with pytest.raises(BadParams) as exc:
            locality._nonzero_targets(zero, kind, 1)
        assert str(exc.value) == f"code has no nonzero {kind}"


def test_std_full_symbol_availability():
    code = construction_std(F2, 2, 2, 4, "full")
    res = locality_profile(code, with_availability=True).symbol_t
    assert res.value == 3 and res.exact  # q^(m(t-1)) - 1


def brute_max_packing(cand):
    best = 0
    for r in range(len(cand), 0, -1):
        for combo in itertools.combinations(cand, r):
            flat = [x for s in combo for x in s]
            if len(flat) == len(set(flat)):
                return r
    return best


def test_packing_matches_bruteforce():
    pools = [
        [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({1, 4})],
        [frozenset({1}), frozenset({1, 2}), frozenset({3, 4}), frozenset({2, 5})],
        [frozenset({i, i + 1}) for i in range(1, 12)],
        [frozenset({1, 2, 3}), frozenset({4}), frozenset({2, 4}), frozenset({5, 6}), frozenset({1, 5})],
    ]
    for cand in pools:
        count, chosen, exact = max_disjoint_packing(cand)
        assert exact
        assert count == brute_max_packing(cand)
        flat = [x for s in chosen for x in s]
        assert len(flat) == len(set(flat))
        assert all(s in cand for s in chosen)


def test_packing_cap_falls_back_to_bound():
    cand = [frozenset({i, i + 1}) for i in range(1, 30)]
    optimum, _, _ = max_disjoint_packing(cand)  # exact: {1,2},{3,4},..,{29,30}
    assert optimum == 15
    count, chosen, exact = max_disjoint_packing(cand, exact_cap=3)
    assert not exact
    assert count <= optimum
    flat = [x for s in chosen for x in s]
    assert len(flat) == len(set(flat))


def test_packing_disjoint_pool_is_exact_at_any_cap():
    # a pairwise-disjoint pool is its own maximum packing, so no cap turns it
    # into a bound
    cand = [frozenset({2 * i, 2 * i + 1}) for i in range(10)]
    count, chosen, exact = max_disjoint_packing(cand, exact_cap=0)
    assert (count, exact) == (10, True)
    assert set(chosen) == set(cand)


def test_packing_over_cap_swaps_one_set_for_two():
    # greedy takes {1,2} and blocks both others; the improvement step trades
    # it for the disjoint pair {1,3}, {2,4}
    count, chosen, exact = max_disjoint_packing([{1, 2}, {1, 3}, {2, 4}], exact_cap=0)
    assert (count, exact) == (2, False)
    assert set(chosen) == {frozenset({1, 3}), frozenset({2, 4})}


def test_packing_empty():
    count, chosen, exact = max_disjoint_packing([])
    assert count == 0 and chosen == () and exact


@pytest.mark.parametrize(
    "field,M,expected_pairs,perfect_cover",
    [
        (F2, 3, 3, True),
        (F2, 4, 17, True),
        (F4, 3, 10, True),
        (F3, 3, 6, True),   # at M = 3 every other subspace meets the target
        (F3, 4, None, False),
    ],
)
def test_grassmann_pairing(field, M, expected_pairs, perfect_cover):
    grass = enumerate_grassmannian(field, M, 2)
    target = grass[0]
    res = grassmann_pairing(field, M)[0]
    if expected_pairs is not None:
        assert len(res.pairs) == expected_pairs
    used = [i for p in res.pairs for i in p]
    assert len(used) == len(set(used))
    assert res.target_index not in used
    assert res.covered == len(used)
    assert res.total_others == len(grass) - 1
    if perfect_cover:
        assert res.covered == res.total_others
    for a, c in res.pairs:
        assert contains_subspace(subspace_sum(grass[a], grass[c]), target)


def test_grassmann_pairing_odd_q_lower_bound():
    # odd q at M = 4: the within-class pairing skips q(q^2+q-1) members per
    # class; what remains still meets the documented floor
    q = 3
    res = grassmann_pairing(F3, 4)[5]
    floor = (gaussian(4, 2, q) - 1 - q * (q**2 + q - 1) * gaussian(2, 2, q)) // 2
    assert len(res.pairs) >= floor


def test_grassmann_pairing_every_target_even_q():
    # even q: the pairing is a perfect matching for every possible target
    grass = enumerate_grassmannian(F2, 4, 2)
    pairings = grassmann_pairing(F2, 4)
    assert [res.target_index for res in pairings] == list(range(len(grass)))
    for target, res in zip(grass, pairings):
        for a, c in res.pairs:
            assert contains_subspace(subspace_sum(grass[a], grass[c]), target)
        assert len(res.pairs) == 17
        assert res.covered == 34


def test_grassmann_pairing_bad_target():
    # every 2-dim subspace is a target; below M = 2 there is none
    for M in (0, 1):
        with pytest.raises(BadParams, match=f"^pairing needs 2-dim subspaces, got M={M}$"):
            grassmann_pairing(F2, M)


def test_repair_all_codewords_all_columns():
    code = construction_spread(F2, 4, 2)
    for cw in all_codewords(code):
        for j in range(code.n):
            rows = [list(r) for r in cw.rows]
            for i in range(code.b):
                rows[i][j] = (rows[i][j] + 1) % 2  # garbage in the erased slot
            damaged = Mat.from_rows(F2, [tuple(r) for r in rows])
            res = repair(code, damaged, j)
            assert res.column == tuple(cw.rows[i][j] for i in range(code.b))
            assert res.used.size == 2  # spread at M = 2b has node locality 2
            assert j not in res.used.columns


def test_repair_reports_recovery_set():
    code = construction_std(F2, 1, 3, 6, "par")
    cw = encode(code, (1, 0, 1, 1, 0, 1))
    res = repair(code, cw, 4)
    assert res.used.kind == "node"
    assert len(res.used.columns) == res.used.size <= 2
    assert res.message == (1, 0, 1, 1, 0, 1)


def test_repair_inconsistent_surviving_data():
    code = construction_spread(F2, 4, 2)
    cw = encode(code, (1, 1, 0, 0))
    rows = [list(r) for r in cw.rows]
    rows[0][1] ^= 1  # corrupt a survivor, not the erased column
    with pytest.raises(Inconsistent):
        repair(code, Mat.from_rows(F2, [tuple(r) for r in rows]), 3)


def test_repair_argument_checks():
    code = construction_spread(F2, 4, 2)
    cw = encode(code, (0, 0, 0, 0))
    with pytest.raises(OutOfRange):
        repair(code, cw, 5)
    with pytest.raises(BadParams):
        repair(code, Mat.from_rows(F2, [(0, 0), (0, 0)]), 0)


@pytest.mark.parametrize("rows,cols", [(1, 5), (2, 2), (2, 6)])
def test_evaluate_recovery_and_repair_check_the_array_shape(rows, cols):
    # any shape but b x n is rejected before an entry is read, with repair's message
    code = construction_spread(F2, 4, 2)  # 2 x 5
    rset = min_node_recovery(code, 0)
    array = Mat(F2, ((0,) * cols,) * rows, cols)
    for call in (lambda: evaluate_recovery(code, rset, array), lambda: repair(code, array, 0)):
        with pytest.raises(BadParams) as exc:
            call()
        assert str(exc.value) == f"array is {rows}x{cols}, code is 2x5"


@pytest.mark.parametrize("column", [7, -1])
def test_evaluate_recovery_checks_helper_columns(column):
    # a helper column outside the code is named with repair's message before the array is read
    code = construction_spread(F2, 4, 2)  # 2 x 5
    rset = min_node_recovery(code, 0)
    bad = dataclasses.replace(rset, columns=(column, *rset.columns[1:]))
    with pytest.raises(OutOfRange) as exc:
        evaluate_recovery(code, bad, encode(code, (1, 0, 1, 1)))
    assert str(exc.value) == f"column {column} outside 0..4"


def test_profile_with_availability():
    code = construction_all_subspaces(F2, 3, 2)
    profile = locality_profile(code, with_availability=True)
    assert profile.node_t.value == 3
    assert profile.symbol_t.value == 2
    assert profile.node_t.exact and profile.symbol_t.exact


# --- brute-force reference for the recovery-set engine ---------------------------
# Every helper sum is rebuilt from scratch with Subspace.from_span, node
# targets are tested column vector by column vector, and minimality uses the
# plain scan over every set found so far.

# a padded mixed-width code: one node of dimension 1, so one symbol is zero
MIXED = code_from_subspaces(
    F2,
    [
        Subspace.from_span(F2, 3, [(1, 0, 0), (0, 1, 0)]),
        Subspace.from_span(F2, 3, [(0, 0, 1)]),
        Subspace.from_span(F2, 3, [(0, 1, 1), (1, 0, 1)]),
    ],
    2,
    3,
    "mixed",
)
ORACLE_CODES = [code for code, _, _ in LOCALITY_CASES] + [MIXED]


def _target_vectors(code, column, row):
    rows = range(code.b) if row is None else (row,)
    return [code.column_vector(i, column) for i in rows]


def _brute_holds(code, subset, vectors):
    basis = [v for m in subset for v in code.subspaces[m].basis]
    span = Subspace.from_span(code.field, code.M, basis)
    return all(contains_vector(span, v) for v in vectors)


def _brute_first(code, column, vectors):
    if not any(any(v) for v in vectors):
        return ()
    others = [m for m in range(code.n) if m != column]
    for size in range(1, len(others) + 1):
        for subset in itertools.combinations(others, size):
            if _brute_holds(code, subset, vectors):
                return subset
    return None


def _brute_coefficients(code, subset, vectors):
    if not subset:
        return tuple(() for _ in vectors)
    cols = tuple(code.column_vector(i, m) for m in subset for i in range(code.b))
    helper = Mat(code.field, cols, code.M).transpose()
    return tuple(reference_solve(code.field, helper.rows, helper.cols, v) for v in vectors)


def _brute_minimal(code, column, vectors, r):
    others = [m for m in range(code.n) if m != column]
    found = []
    for size in range(1, r + 1):
        for subset in itertools.combinations(others, size):
            fs = frozenset(subset)
            if any(prev <= fs for prev in found if len(prev) < size):
                continue
            if _brute_holds(code, subset, vectors):
                found.append(fs)
    return found


def _brute_worst(code, pools_by_target, kind):
    # worst packing over nonzero targets, column by column, first minimum wins
    worst = None
    for (column, row), pool in pools_by_target:
        if not any(any(v) for v in _target_vectors(code, column, row)):
            continue
        if (row is None) != (kind == "node"):
            continue
        value, sets, exact = max_disjoint_packing(pool)
        if worst is None or value < worst[0]:
            worst = (value, exact, sets)
    return worst


@pytest.mark.parametrize("code", ORACLE_CODES, ids=lambda c: c.provenance)
def test_engine_witnesses_match_bruteforce(code):
    profile = locality_profile(code)
    for column, row, got in [(j, None, w) for j, w in enumerate(profile.node_witnesses)] + [
        (j, i, profile.symbol_witnesses[i][j]) for i in range(code.b) for j in range(code.n)
    ]:
        vectors = _target_vectors(code, column, row)
        subset = _brute_first(code, column, vectors)
        assert got.columns == subset
        assert got.coefficients == _brute_coefficients(code, subset, vectors)
        assert validate_recovery(code, got)
        if row is None:
            assert min_node_recovery(code, column) == got
        else:
            assert _witnesses(code, [(column, row)])[0] == got


@pytest.mark.parametrize(
    "code", [c for c in ORACLE_CODES if c.field.q**c.M <= 64], ids=lambda c: c.provenance
)
def test_engine_pools_and_availability_match_bruteforce(code):
    profile = locality_profile(code, with_availability=True)
    r_s, r_n = profile.symbol_locality, profile.node_locality
    keys = [(j, i) for j in range(code.n) for i in (None, *range(code.b))]
    targets = [(j, i, r_n if i is None else r_s) for j, i in keys]
    pools = _minimal_recovery_sets(code, targets)
    brute = []
    for (column, row, r), pool in zip(targets, pools):
        want = _brute_minimal(code, column, _target_vectors(code, column, row), r)
        assert [frozenset(s) for s in pool] == want
        brute.append(((column, row), want))
    node_t, symbol_t = profile.node_t, profile.symbol_t
    assert (node_t.value, node_t.exact, node_t.sets) == _brute_worst(code, brute, "node")
    assert (symbol_t.value, symbol_t.exact, symbol_t.sets) == _brute_worst(code, brute, "symbol")


def test_availability_guard_runs_before_any_walk(monkeypatch):
    code = construction_spread(F2, 4, 2)  # n = 5: 4 + 6 candidate sets of size <= 2
    message = r"^enumerating 10 candidate helper sets needs 10 objects, limit is 9$"
    with pytest.raises(TooLarge, match=message):
        locality_profile(code, with_availability=True, limit=9)

    def no_walk(*args):
        raise AssertionError("walked before the size guard")

    monkeypatch.setattr(locality, "_subset_quotients", no_walk)
    nodes = [(j, None, 2) for j in range(code.n)]
    symbols = [(j, i, 2) for j in range(code.n) for i in range(code.b)]
    for call in (
        lambda: _worst_availability(code, [nodes], exact_cap=DEFAULT_PACKING_CAP, limit=9),
        lambda: _worst_availability(code, [symbols], exact_cap=DEFAULT_PACKING_CAP, limit=9),
        lambda: probe(code, 0, None, 2, limit=9),
        lambda: probe(code, 0, 1, 2, limit=9),
    ):
        with pytest.raises(TooLarge, match=message):
            call()


def test_no_recovery_names_first_unrecoverable_target():
    # nodes 1-3 recover one another; nodes 4 and 5 are independent of the rest
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    code = construction_from_blocks(F2, [Subspace.from_span(F2, 4, [v]) for v in vecs])
    with pytest.raises(NoRecovery, match=r"^node 4 has no recovery set of size <= 4$"):
        locality_profile(code)
    with pytest.raises(NoRecovery, match=r"^node 5 has no recovery set of size <= 4$"):
        min_node_recovery(code, 4)


# --- repair plans against the per-request path ----------------------------------
# reference_repair is repair as it was before a code kept a plan per column:
# every request solves all surviving equations and walks for the node's
# recovery set afresh. It solves by the tuple reference_solve, since the plan's
# decoder is linalg.solve's own routine.


def reference_repair(code, array, column):
    if array.nrows != code.b or array.cols != code.n:
        raise BadParams(f"array is {array.nrows}x{array.cols}, code is {code.b}x{code.n}")
    if not 0 <= column < code.n:
        raise OutOfRange(f"column {column} outside 0..{code.n - 1}")
    rows, rhs = [], []
    for m in range(code.n):
        if m == column:
            continue
        for i in range(code.b):
            rows.append(code.column_vector(i, m))
            rhs.append(array.rows[i][m])
    for x in rhs:
        if not 0 <= x < code.field.q:
            raise OutOfRange(f"entry {x} outside field of order {code.field.q}")
    message = reference_solve(code.field, rows, code.M, rhs)
    if message is None:
        raise Inconsistent("surviving columns do not agree with any codeword")
    rset = min_node_recovery(code, column)
    restored = evaluate_recovery(code, rset, array)
    expected = tuple(
        vec_dot(code.field, message, code.column_vector(i, column)) for i in range(code.b)
    )
    assert restored == expected
    return RepairResult(restored, rset, tuple(message))


def _outcome(fn, code, array, column):
    try:
        res = fn(code, array, column)
    except SubspaceCodeError as exc:
        return type(exc), str(exc)
    return res.column, res.used, res.message


def _received(code, message, column, rng, corrupt=False):
    """The codeword of message with garbage in column and, if corrupt, one
    surviving symbol changed."""
    q = code.field.q
    rows = [list(r) for r in encode(code, message).rows]
    for r in rows:
        r[column] = rng.randrange(q)
    if corrupt:
        m = rng.choice([x for x in range(code.n) if x != column])
        i = rng.randrange(code.b)
        rows[i][m] = rng.choice([v for v in range(q) if v != rows[i][m]])
    return Mat.from_rows(code.field, [tuple(r) for r in rows])


REPAIR_CODES = [
    construction_spread(F2, 4, 2),
    construction_spread(F3, 4, 2),
    construction_std(F2, 1, 3, 6, "par"),
    construction_all_subspaces(F4, 3, 2),
    MIXED,
]


@pytest.mark.parametrize("code", REPAIR_CODES, ids=lambda c: c.provenance)
def test_repair_matches_reference_on_one_code_object(code):
    # one code object throughout, so every request after a column's first
    # runs on the plan the first one built
    rng = random.Random(code.n * 131 + code.field.q)
    seen = set()
    for _ in range(2):
        for column in rng.sample(range(code.n), code.n):
            for corrupt in (False, False, True):
                message = [rng.randrange(code.field.q) for _ in range(code.M)]
                array = _received(code, message, column, rng, corrupt)
                got = _outcome(repair, code, array, column)
                assert got == _outcome(reference_repair, code, array, column)
                if not corrupt:
                    assert got[2] == tuple(message)
                seen.add(got[0] if isinstance(got[0], type) else "repaired")
    assert seen == {"repaired", Inconsistent}
    assert set(code._repair_plans) == set(range(code.n))
    assert _outcome(repair, code, array, code.n) == _outcome(reference_repair, code, array, code.n)
    small = Mat(code.field, ((0,) * (code.n - 1),) * code.b, code.n - 1)
    assert _outcome(repair, code, small, 0) == _outcome(reference_repair, code, small, 0)


@pytest.mark.parametrize("code", REPAIR_CODES, ids=lambda c: c.provenance)
def test_repair_plan_decoder_is_the_row_major_restriction(code):
    """Each column's plan splices its entries out of the code's one packed
    generator; its decoder is the _Combiner of the generator rows restricted
    to the surviving symbols, packed from tuples in row-major order."""
    code = dataclasses.replace(code)  # a code object with no plans yet
    pack = linalg._layout(code.field).pack
    for column in range(code.n):
        plan = locality._repair_plan(code, column)
        code._repair_plans[column] = plan
        rows = [
            pack(tuple(r[m * code.b + i] for i in range(code.b) for m in range(code.n) if m != column))
            for r in code.generator.rows
        ]
        want = linalg._Combiner(code.field, (code.n - 1) * code.b, rows)
        assert (plan.decoder.rows, plan.decoder.pivots) == (want.rows, want.pivots)
    assert len({id(plan.generator) for plan in code._repair_plans.values()}) == 1


def test_repair_rank_deficient_erasure_raises_engine_no_recovery():
    # b = 1 blocks <e1>, <e2>, <e3>, <e1+e3>: without column 2 the others span
    # only <e1, e3>, so node 2 has no recovery set, yet the survivors can
    # still contradict one another
    vecs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]
    code = construction_from_blocks(F2, [Subspace.from_span(F2, 3, [v]) for v in vecs])
    clean = encode(code, (1, 1, 1))
    bad = Mat.from_rows(F2, [(1, 1, 1, 1)])  # x1 + x3 != the fourth symbol
    text = "^node 2 has no recovery set of size <= 3$"
    with pytest.raises(NoRecovery, match=text):
        min_node_recovery(code, 1)
    for _ in range(2):
        with pytest.raises(Inconsistent):
            repair(code, bad, 1)
        with pytest.raises(NoRecovery, match=text):
            repair(code, clean, 1)
        for array in (clean, bad):
            assert _outcome(repair, code, array, 1) == _outcome(reference_repair, code, array, 1)


def test_repair_out_of_range_survivor_on_first_and_repeated_request():
    code = construction_spread(F2, 4, 2)
    word = encode(code, (1, 0, 1, 1))
    rows = [list(r) for r in word.rows]
    rows[1][2] = 2
    array = Mat(F2, tuple(tuple(r) for r in rows), code.n)
    for _ in range(2):
        with pytest.raises(OutOfRange, match="^entry 2 outside field of order 2$"):
            repair(code, array, 0)
    assert _outcome(repair, code, array, 0) == _outcome(reference_repair, code, array, 0)
    # the erased column is never read, so an entry out of range there is ignored
    assert repair(code, array, 2).column == word.column(2)


def test_repeated_repair_makes_no_search_and_no_elimination(monkeypatch):
    """A second request for the same (code, column) runs on the plan alone,
    and a request the decoder rejects makes no recovery-set search."""
    code = construction_spread(F3, 4, 2)
    calls = {"_witnesses": 0, "_rref_rows": 0}
    for module, name in ((locality, "_witnesses"), (linalg, "_rref_rows")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rng = random.Random(5)
    # a first request that the decoder rejects searches for no recovery set
    with pytest.raises(Inconsistent):
        repair(code, _received(code, (1, 2, 0, 1), 3, rng, corrupt=True), 3)
    rows = [list(r) for r in encode(code, (1, 2, 0, 1)).rows]
    rows[0][0] = 3
    with pytest.raises(OutOfRange):
        repair(code, Mat(F3, tuple(tuple(r) for r in rows), code.n), 1)
    assert calls["_witnesses"] == 0 and calls["_rref_rows"] > 0
    repair(code, _received(code, (1, 2, 0, 1), 3, rng), 3)
    assert calls["_witnesses"] == 1
    for message, corrupt in (((2, 2, 1, 0), False), ((0, 1, 1, 2), True)):
        calls.update(_witnesses=0, _rref_rows=0)
        array = _received(code, message, 3, rng, corrupt)
        want = Inconsistent if corrupt else encode(code, message).column(3)
        assert _outcome(repair, code, array, 3)[0] == want
        assert calls == {"_witnesses": 0, "_rref_rows": 0}
    repair(code, _received(code, (1, 2, 0, 1), 0, rng), 0)
    assert calls["_witnesses"] == 1 and calls["_rref_rows"] > 0


# --- spread node locality at M > 2b ---------------------------------------------
# A Desarguesian spread is normal: the span of any two of its blocks is a union
# of blocks (Lunardon, Normal spreads, 1999), q^b + 1 of them in the 2b-space.
# So for node j and any other block a, U_j + U_a holds a third block c, and
# U_a + U_c = U_j + U_a recovers node j: two helpers suffice, and one never
# does, since blocks meet trivially.


def blocks_in_pair_sums(code):
    """For each pair of blocks, how many blocks their sum holds."""
    blocks = code.subspaces
    counts = []
    for a, c in itertools.combinations(range(len(blocks)), 2):
        total = subspace_sum(blocks[a], blocks[c])
        counts.append(sum(contains_subspace(total, u) for u in blocks))
    return counts


@pytest.mark.parametrize("M,b", [(6, 2), (8, 2), (9, 3)])
def test_desarguesian_spread_pair_sums_are_unions_of_blocks(M, b):
    code = construction_spread(F2, M, b, "desarguesian")
    assert set(blocks_in_pair_sums(code)) == {2**b + 1}
    assert locality_profile(code).node_locality == 2


def test_gabidulin_spread_pair_sums_are_not_all_unions_of_blocks():
    # the union count tells the two methods apart: this spread is not normal
    code = construction_spread(F2, 6, 2, "gabidulin-echelon")
    assert set(blocks_in_pair_sums(code)) != {2**2 + 1}
