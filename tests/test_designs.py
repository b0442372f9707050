import ast
import dataclasses
import itertools
import re

import pytest

from subspace_lrc.designs import (
    SpreadDesign,
    build_gabidulin,
    build_spread,
    build_std,
    enumerate_grassmannian,
    gaussian,
    gaussian_or_zero,
    steiner_parameters,
    verify_spread,
    verify_std,
)
from subspace_lrc.errors import BadParams, NotDivisible, OutOfRange, TooLarge
from subspace_lrc.gf import extension_new, field_new
from subspace_lrc.linalg import Mat, Subspace, subspace_sum
from reference import contains_subspace, contains_vector, enumerate_vectors, rank

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def rank_distance(a, b):
    """Rank of the difference of two equal-shape matrices."""
    F = a.field
    diff = tuple(tuple(F.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows))
    return rank(Mat(F, diff, a.cols))


def grassmannian_oracle(field, n, k):
    """Count k-subspaces by collecting row spaces of all k x n matrices."""
    q = field.q
    seen = set()
    for rows in itertools.product(itertools.product(range(q), repeat=n), repeat=k):
        s = Subspace.from_span(field, n, rows)
        if s.dim == k:
            seen.add(s)
    return seen


def test_gaussian_against_enumeration():
    assert gaussian(3, 1, 2) == 7
    assert gaussian(4, 2, 2) == 35
    for q, field in [(2, F2), (3, F3)]:
        for n in range(5):
            for k in range(n + 1):
                if q**(n * k) > 3**8:
                    continue
                assert gaussian(n, k, q) == len(grassmannian_oracle(field, n, k))


def test_gaussian_recursion_and_symmetry():
    for q in (2, 3, 4):
        for n in range(1, 17):
            for k in range(n + 1):
                assert gaussian(n, k, q) == gaussian(n, n - k, q)
                if 0 < k:
                    assert (
                        gaussian(n, k, q)
                        == gaussian(n - 1, k - 1, q) + q**k * gaussian_or_zero(n - 1, k, q)
                    )


def test_gaussian_domain():
    assert gaussian(0, 0, 2) == 1
    with pytest.raises(OutOfRange):
        gaussian(3, 4, 2)
    with pytest.raises(OutOfRange):
        gaussian(-1, 0, 2)
    with pytest.raises(OutOfRange):
        gaussian(3, 1, 1)
    assert gaussian_or_zero(3, 4, 2) == 0
    assert gaussian_or_zero(-1, 0, 2) == 0
    assert gaussian_or_zero(3, -1, 2) == 0


def test_verify_std_names_a_block_with_too_few_points():
    design = build_std(F2, 1, 2, 2)
    short = Subspace.from_span(F2, 4, [(1, 0, 0, 0)])
    broken = dataclasses.replace(design, blocks=(short, *design.blocks[1:]))
    checks = {c.name: (c.passed, c.detail) for c in verify_std(broken)}
    assert checks["block-group-incidence"] == (False, "block 0 holds 1 points, expected 3")


def test_enumerate_grassmannian_counts_and_order():
    cases = [(F2, 4, 2), (F2, 5, 2), (F3, 3, 2), (F4, 3, 1), (F2, 6, 3)]
    for field, n, k in cases:
        g = enumerate_grassmannian(field, n, k)
        assert len(g) == gaussian(n, k, field.q)
        assert len(set(g)) == len(g)
        assert all(s.dim == k and s.ambient == n for s in g)
        assert list(g) == sorted(g, key=lambda s: s.basis)


def test_enumerate_grassmannian_matches_oracle():
    for field, n, k in [(F2, 4, 2), (F3, 3, 1), (F3, 3, 2)]:
        assert set(enumerate_grassmannian(field, n, k)) == grassmannian_oracle(field, n, k)


def test_enumerate_grassmannian_limit():
    with pytest.raises(TooLarge):
        enumerate_grassmannian(F2, 30, 15, limit=1000)


@pytest.mark.parametrize(
    "field,b,s",
    [(F2, 1, 1), (F2, 1, 2), (F2, 2, 2), (F2, 2, 3), (F3, 2, 2), (F4, 2, 2)],
)
def test_mrd_fullrank_pairwise_distance(field, b, s):
    ext = extension_new(field, s)
    words = build_gabidulin(ext, b, 1)
    assert len(words) == field.q**s
    mats = [Mat(field, tuple(ext.expand(x) for x in w), s) for w in words]
    for x, y in itertools.combinations(mats, 2):
        assert rank_distance(x, y) == b
    with pytest.raises(BadParams):
        build_gabidulin(extension_new(field, 2), 3, 1)


def test_gabidulin_rank_distance():
    # [n=3, t=2] over gf(2^3): minimum rank distance n - t + 1 = 2
    base = F2
    ext = extension_new(base, 3)
    words = build_gabidulin(ext, 3, 2)
    assert len(words) == ext.q**2
    mats = [Mat(base, tuple(ext.expand(x) for x in w), 3) for w in words]
    dmin = min(
        rank_distance(a, b) for a, b in itertools.combinations(mats, 2)
    )
    assert dmin == 3 - 2 + 1


@pytest.mark.parametrize(
    "field,M,b",
    [
        (F2, 2, 1),
        (F2, 4, 2),
        (F2, 6, 2),
        (F2, 6, 3),
        (F2, 4, 4),
        (F3, 4, 2),
        (F4, 4, 2),
    ],
)
@pytest.mark.parametrize("method", ["gabidulin-echelon", "desarguesian"])
def test_spread_grid(field, M, b, method):
    design = build_spread(field, M, b, method)
    q = field.q
    assert len(design.blocks) == (q**M - 1) // (q**b - 1)
    failed = [c for c in verify_spread(design) if c.passed is False]
    assert not failed, failed
    # partition re-checked here independently of the verifier
    seen = set()
    for blk in design.blocks:
        vecs = {v for v in enumerate_vectors(blk) if any(v)}
        assert not (vecs & seen)
        seen |= vecs
    assert len(seen) == q**M - 1


def test_spread_methods_agree_on_block_set_at_b1():
    # 1-spreads are unique (all projective points), so both methods must
    # produce the same set
    a = build_spread(F2, 3, 1, "gabidulin-echelon")
    b = build_spread(F2, 3, 1, "desarguesian")
    assert set(a.blocks) == set(b.blocks)


def test_spread_rejects_bad_params():
    with pytest.raises(NotDivisible):
        build_spread(F2, 5, 2)
    with pytest.raises(OutOfRange):
        build_spread(F2, 0, 1)
    with pytest.raises(BadParams):
        build_spread(F2, 4, 2, "unknown-method")


def test_verify_spread_flags_broken_design():
    design = build_spread(F2, 4, 2)
    # swap one block for a subspace that overlaps another block
    bad_blocks = list(design.blocks)
    bad_blocks[0] = bad_blocks[1]
    broken = SpreadDesign(F2, 4, 2, design.method, tuple(bad_blocks), design.unit_indices)
    outcomes = verify_spread(broken)
    assert any(c.passed is False for c in outcomes)
    # the partition detail names a vector that both named blocks hold
    detail = next(c.detail for c in outcomes if c.name == "partition")
    match = re.search(r"; vector (\(.*\)) in blocks (\d+) and (\d+)$", detail)
    vector, i, j = ast.literal_eval(match[1]), int(match[2]), int(match[3])
    assert i != j
    assert contains_vector(broken.blocks[i], vector) and contains_vector(broken.blocks[j], vector)


@pytest.mark.parametrize(
    "field,t,b,m",
    [
        (F2, 1, 2, 2),
        (F2, 2, 2, 2),
        (F2, 1, 3, 3),
        (F2, 2, 2, 3),
        (F3, 1, 2, 2),
        (F4, 1, 2, 2),
        (F2, 1, 2, 3),
    ],
)
def test_std_grid(field, t, b, m):
    design = build_std(field, t, b, m)
    q = field.q
    assert len(design.blocks) == q ** (m * t)
    assert len(design.groups) == gaussian(b, 1, q)
    assert len(design.points) == sum(len(g) for g in design.groups)
    failed = [c for c in verify_std(design) if c.passed is False]
    assert not failed, failed


def test_std_block_group_incidence_by_hand():
    # every block meets every group in exactly one point; checked here
    # directly instead of through the verifier
    design = build_std(F2, 1, 2, 2)
    for blk in design.blocks:
        for grp in design.groups:
            hits = [
                i for i in grp if contains_subspace(blk, design.points[i])
            ]
            assert len(hits) == 1


def test_std_classes_partition_and_cover():
    design = build_std(F2, 2, 2, 2)
    all_idx = sorted(i for cls in design.classes for i in cls)
    assert all_idx == list(range(len(design.blocks)))
    # within a class, blocks cover every point exactly once
    for cls in design.classes:
        for pt in design.points:
            hits = sum(
                1 for i in cls if contains_subspace(design.blocks[i], pt)
            )
            assert hits == 1


def test_std_strength_two_pair_coverage():
    # t = 2: every pair of points from different groups lies in exactly
    # lambda = q^(m(t-1)) / ... blocks; for this design each cross-group
    # pair of points lies in the same number of blocks
    design = build_std(F2, 2, 2, 2)
    lam = None
    for gi, gj in itertools.combinations(range(len(design.groups)), 2):
        for a in design.groups[gi]:
            for c in design.groups[gj]:
                span = subspace_sum(design.points[a], design.points[c])
                hits = sum(1 for blk in design.blocks if contains_subspace(blk, span))
                if lam is None:
                    lam = hits
                assert hits == lam
    assert lam == 1  # q^(m t) blocks / (q^m)^2 point pairs per group pair


def test_std_bad_params():
    with pytest.raises(BadParams):
        build_std(F2, 3, 2, 2)  # t > b
    with pytest.raises(BadParams):
        build_std(F2, 0, 2, 2)
    with pytest.raises(BadParams):
        build_std(F2, 1, 3, 2)  # b > m


def test_steiner_parameters_spread_and_std():
    spread = build_spread(F2, 4, 2)
    assert steiner_parameters(F2, spread.blocks) == [1]
    std = build_std(F2, 1, 2, 2)
    one_class = [std.blocks[i] for i in std.classes[0]]
    # a single parallel class covers some 1-spaces zero times
    assert steiner_parameters(F2, one_class) == []
    all_two = enumerate_grassmannian(F2, 4, 2)
    assert steiner_parameters(F2, all_two) == [2]


def test_design_verifiers_skip_over_limit_and_reject_invalid_limits():
    spread = build_spread(F2, 4, 2)
    std = build_std(F2, 1, 2, 2)
    skipped = {c.name: c.detail for c in verify_spread(spread, limit=8) if c.passed is None}
    assert skipped == {
        "partition": "spread partition check needs 16 objects, limit is 8",
        "pairwise-trivial-intersection": "skipped with partition",
    }
    skipped = {c.name: c.detail for c in verify_std(std, limit=10) if c.passed is None}
    assert skipped == {"t-coverage": "t-subspace coverage scan needs 15 objects, limit is 10"}
    # t = 1 scans 15 lines: at limit 14 it is not checked, at 15 it holds
    assert steiner_parameters(F2, spread.blocks, limit=14) == []
    assert steiner_parameters(F2, spread.blocks, limit=15) == [1]
    # an invalid limit is an error, never a skipped or a failed check
    for call in (
        lambda: verify_spread(spread, limit=0),
        lambda: verify_std(std, limit=0),
        lambda: steiner_parameters(F2, spread.blocks, limit=0),
    ):
        with pytest.raises(ValueError, match="^limit must be positive$"):
            call()
