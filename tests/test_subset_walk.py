"""The packed subset walk against the per-target containment it replaced.

The recovery-set engine and the dual-distance search walk helper subsets on
the generator reduced modulo each subset's sum (`linalg._subset_quotients`)
and read every target off one packed test. The reference below is the walk
as it was before: canonical `Subspace` sums built with `subspace_sum`, and
one `contains_subspace` per (sum, pending target). Both must agree on every
acceptance code, on padded codes (a subspace of dimension below b, so some
generator columns are zero) and on from-blocks codes with overlapping
blocks, over gf(2), gf(3), gf(4) and gf(9).
"""

import itertools
import random
from functools import reduce

import pytest

from subspace_lrc import linalg
from subspace_lrc.arraycode import (
    code_from_subspaces,
    construction_from_blocks,
    construction_spread,
    dual_distance_by_supports,
)
from subspace_lrc.gf import field_new
from subspace_lrc.linalg import Subspace, _subset_quotients, subspace_sum
from subspace_lrc.locality import _minimal_recovery_sets, _witnesses, locality_profile, min_node_recovery
from reference import contains_subspace, contains_vector, validate_recovery
from test_arraycode import acceptance_codes

FIELDS = {q: field_new(p, k) for q, p, k in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (9, 3, 2))}


# --- the reference: subspace sums and per-target containment -------------------


def reference_subset_sums(subspaces, columns, size):
    """Every size-element subset of columns in lex order, with its canonical
    subspace sum; prefix sums are shared through a stack."""
    stack = []
    prev = (-1,) * size
    for subset in itertools.combinations(columns, size):
        k = 0
        while prev[k] == subset[k]:
            k += 1
        del stack[k:]
        for m in subset[k:]:
            stack.append(subspace_sum(stack[-1], subspaces[m]) if stack else subspaces[m])
        prev = subset
        yield subset, stack[-1]


def reference_target(code, column, row):
    if row is None:
        return code.subspaces[column]
    return Subspace.from_span(code.field, code.M, [code.column_vector(row, column)])


def reference_witness_sets(code, targets, cap):
    """The first helper set in (size, lex) order whose sum holds each target."""
    subs = [reference_target(code, column, row) for column, row in targets]
    found = [None if t.dim else () for t in subs]
    pending = [k for k, f in enumerate(found) if f is None]
    columns = [m for m in range(code.n) if any(t[0] != m for t in targets)]
    for size in range(1, cap + 1):
        if not pending:
            break
        for subset, span in reference_subset_sums(code.subspaces, columns, size):
            for k in pending:
                if targets[k][0] not in subset and contains_subspace(span, subs[k]):
                    found[k] = subset
            pending = [k for k in pending if found[k] is None]
            if not pending:
                break
    return found


def reference_pools(code, targets):
    """Each (column, row, r) target's minimal valid helper sets."""
    subs = [reference_target(code, column, row) for column, row, _ in targets]
    pools = [[] for _ in targets]
    valid = [set() for _ in targets]
    for size in range(1, max((r for _, _, r in targets), default=0) + 1):
        active = [k for k, t in enumerate(targets) if t[2] >= size]
        grown = [set() for _ in targets]
        columns = [m for m in range(code.n) if any(targets[k][0] != m for k in active)]
        for subset, span in reference_subset_sums(code.subspaces, columns, size):
            faces = [subset[:i] + subset[i + 1 :] for i in range(size)]
            for k in active:
                column, _, r = targets[k]
                if column in subset:
                    continue
                held = bool(valid[k]) and any(f in valid[k] for f in faces)
                if not held and contains_subspace(span, subs[k]):
                    pools[k].append(subset)
                    held = True
                if held and size < r:
                    grown[k].add(subset)
        valid = grown
    return pools


def reference_dual_distance(code):
    b, n, M = code.b, code.n, code.M
    for w in range(1, n + 1):
        if w * b > M:
            return w
        if any(span.dim < w * b for _, span in reference_subset_sums(code.subspaces, range(n), w)):
            return w
    raise AssertionError("unreachable")


# --- codes ------------------------------------------------------------------------


def _random_subspace(rng, field, M, dim):
    while True:
        vectors = [tuple(rng.randrange(field.q) for _ in range(M)) for _ in range(dim)]
        s = Subspace.from_span(field, M, vectors)
        if s.dim == dim:
            return s


def _units(field, M):
    return [Subspace.from_span(field, M, [tuple(int(i == c) for i in range(M))]) for c in range(M)]


def padded_code(q, M, b, n, seed):
    """Random subspaces of every dimension 1..b, the unit lines among them so
    that they span; the narrow ones are zero-padded to width b."""
    rng, field = random.Random(seed), FIELDS[q]
    subs = _units(field, M) + [_random_subspace(rng, field, M, rng.randint(1, b)) for _ in range(n - M)]
    rng.shuffle(subs)
    return code_from_subspaces(field, subs, b, M, f"padded q={q} M={M} b={b} seed={seed}")


def blocks_code(q, M, b, n, seed):
    """n distinct random b-dim blocks (they overlap) that span GF(q)^M."""
    rng, field = random.Random(seed), FIELDS[q]
    while True:
        blocks = list(dict.fromkeys(_random_subspace(rng, field, M, b) for _ in range(n)))
        if len(blocks) == n and reduce(subspace_sum, blocks).dim == M:
            return construction_from_blocks(field, blocks)


EXTRA = [
    padded_code(2, 4, 2, 9, 1),
    padded_code(2, 5, 3, 10, 2),
    padded_code(3, 3, 2, 8, 3),
    padded_code(4, 3, 2, 7, 4),
    padded_code(9, 3, 2, 6, 5),
    blocks_code(2, 4, 2, 8, 6),
    blocks_code(3, 3, 2, 7, 7),
    blocks_code(4, 3, 2, 6, 8),
    blocks_code(9, 3, 2, 5, 9),
]
CODES = acceptance_codes() + EXTRA


def ids(code):
    return code.provenance


def _targets(code):
    return [(j, None) for j in range(code.n)] + [(j, i) for j in range(code.n) for i in range(code.b)]


# --- cross-checks -------------------------------------------------------------------


@pytest.mark.parametrize("code", CODES, ids=ids)
def test_walk_reads_the_same_sums(code):
    """Each yielded subset has M - dim S reduced rows, and a flag is clear
    exactly when its node or symbol lies in the reference sum."""
    gen = code._packed_generator
    for size in (1, 2):
        walk = _subset_quotients(gen, range(code.n), size)
        reference = reference_subset_sums(code.subspaces, range(code.n), size)
        for (subset, rows), (same, span) in itertools.islice(zip(walk, reference), 400):
            assert subset == same
            assert code.M - len(rows) == span.dim
            unheld = gen.unheld(rows)
            for j in range(code.n):
                held = not unheld & gen.flag(j, None)
                assert held == contains_subspace(span, code.subspaces[j])
                for i in range(code.b):
                    held = not unheld & gen.flag(j, i)
                    assert held == contains_vector(span, code.column_vector(i, j))


@pytest.mark.parametrize("code", CODES, ids=ids)
def test_witnesses_match_reference(code):
    targets = _targets(code)
    got = [w.columns for w in _witnesses(code, targets)]
    assert got == reference_witness_sets(code, targets, code.n - 1)


@pytest.mark.parametrize("code", CODES, ids=ids)
def test_single_node_search_matches_reference(code):
    """One node target: the walk tries only the leaves inside S + U_j when
    the node adds b dimensions to the prefix sum S, every leaf otherwise (the
    padded codes' narrow nodes)."""
    for j in range(code.n):
        rset = min_node_recovery(code, j)
        assert rset.columns == reference_witness_sets(code, [(j, None)], code.n - 1)[0]
        assert validate_recovery(code, rset)


def test_single_node_search_eliminates_only_inside_s_plus_u_j(monkeypatch):
    """Spread q=2 M=12 b=3, node 401: the lex-first witness is a pair, and an
    unfiltered walk eliminates once per pair before it (93,178 times)."""
    code = construction_spread(FIELDS[2], 12, 3)
    calls = []
    eliminate = linalg._Generator.eliminate

    def counted(self, rows, j):
        calls.append(j)
        return eliminate(self, rows, j)

    monkeypatch.setattr(linalg._Generator, "eliminate", counted)
    assert min_node_recovery(code, 400).columns == (188, 568)
    assert len(calls) <= 1000


def test_single_node_search_reduces_modulo_the_node_once(monkeypatch):
    """Spread q=2 M=8 b=2, every column: the node is eliminated once per
    search, the pruning's reductions follow the walk's prefixes, and the
    walk reduces its own prefix rows only where some leaf is left; the
    witnesses are the reference's. Eliminating the node from every prefix's
    rows took 2,436 eliminations."""
    code = construction_spread(FIELDS[2], 8, 2)
    calls = []
    eliminate = linalg._Generator.eliminate

    def counted(self, rows, j):
        calls.append(j)
        return eliminate(self, rows, j)

    monkeypatch.setattr(linalg._Generator, "eliminate", counted)
    witnesses = [min_node_recovery(code, j).columns for j in range(code.n)]
    assert len(calls) == 1388
    monkeypatch.undo()
    assert witnesses == [reference_witness_sets(code, [(j, None)], code.n - 1)[0] for j in range(code.n)]


@pytest.mark.parametrize("code", CODES, ids=ids)
def test_pools_match_reference(code):
    profile = locality_profile(code)
    r_n, r_s = profile.node_locality, profile.symbol_locality
    targets = [(j, i, r_n if i is None else r_s) for j, i in _targets(code)]
    if code.n > 40:  # the reference walk is per target: a sample of them
        targets = targets[:: len(targets) // 12]
    assert _minimal_recovery_sets(code, targets) == reference_pools(code, targets)


@pytest.mark.parametrize("code", CODES, ids=ids)
def test_dual_distance_matches_reference(code):
    assert dual_distance_by_supports(code) == reference_dual_distance(code)
