"""The point-to-blocks incidence behind every design verifier.

`designs.point_incidence` maps each packed projective point to the blocks
that hold it; `verify_std`, `verify_spread`, `steiner_parameters` and
`grassmann_pairing` read their holders from it. The references below are
the per-block containment scans the verifiers used before, kept here so a
broken design names the same counterexample either way.
"""

import random

import pytest

from subspace_lrc import designs, linalg
from subspace_lrc.designs import (
    TransversalDesign,
    build_spread,
    build_std,
    enumerate_grassmannian,
    point_incidence,
    steiner_parameters,
    verify_std,
)
from subspace_lrc.gf import field_new
from subspace_lrc.limits import guard
from subspace_lrc.linalg import Subspace
from reference import contains_subspace, contains_vector, intersection_dim, projective_points

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)


def block_sets():
    """(name, field, blocks): spreads, transversal designs and all subspaces at q = 2, 3, 4."""
    out = []
    for field in (F2, F3, F4):
        q = field.q
        for method in ("gabidulin-echelon", "desarguesian"):
            out.append((f"spread-q{q}-{method}", field, build_spread(field, 4, 2, method).blocks))
        out.append((f"std-q{q}-t1", field, build_std(field, 1, 2, 2).blocks))
        out.append((f"all-q{q}-M3-b2", field, enumerate_grassmannian(field, 3, 2)))
    out.append(("std-q2-t2", F2, build_std(F2, 2, 2, 3).blocks))
    out.append(("std-q3-t2", F3, build_std(F3, 2, 2, 2).blocks))
    return out


@pytest.mark.parametrize("name,field,blocks", block_sets(), ids=[s[0] for s in block_sets()])
def test_point_incidence_matches_vector_containment(name, field, blocks):
    incidence = point_incidence(blocks)
    points = enumerate_grassmannian(field, blocks[0].ambient, 1)
    keys = {pt.rows[0] for pt in points}
    assert set(incidence) <= keys
    for pt in points:
        expected = [i for i, blk in enumerate(blocks) if contains_vector(blk, pt.basis[0])]
        assert incidence.get(pt.rows[0], []) == expected


def _reference_steiner(field, blocks, limit=None):
    """steiner_parameters by one containment test per (t-subspace, block)."""
    ambient, b = blocks[0].ambient, blocks[0].dim
    out = []
    for t in range(1, b + 1):
        try:
            guard(designs.gaussian(ambient, t, field.q), "Steiner coverage scan", limit)
        except designs.TooLarge:
            continue
        if all(
            sum(1 for blk in blocks if contains_subspace(blk, w)) == 1
            for w in enumerate_grassmannian(field, ambient, t, limit=limit)
        ):
            out.append(t)
    return out


def steiner_cases():
    spread = build_spread(F2, 4, 2)
    std = build_std(F2, 1, 2, 2)
    cases = [
        ("spread-q2-M4-b2", F2, spread.blocks),
        ("std-one-class", F2, [std.blocks[i] for i in std.classes[0]]),
        ("all-q2-M4-b2", F2, enumerate_grassmannian(F2, 4, 2)),
        ("desarguesian-q2-M6-b2", F2, build_spread(F2, 6, 2, "desarguesian").blocks),
        ("desarguesian-q3-M4-b2", F3, build_spread(F3, 4, 2, "desarguesian").blocks),
    ]
    for seed in range(6):
        rng = random.Random(seed)
        field = (F2, F3, F4)[seed % 3]
        ambient = 4 if field is F2 else 3
        pool = enumerate_grassmannian(field, ambient, rng.choice((1, 2)))
        blocks = rng.sample(pool, rng.randint(1, len(pool)))
        cases.append((f"random-{seed}", field, blocks))
    return cases


@pytest.mark.parametrize("name,field,blocks", steiner_cases(), ids=[c[0] for c in steiner_cases()])
def test_steiner_parameters_match_containment_reference(name, field, blocks):
    assert steiner_parameters(field, blocks) == _reference_steiner(field, blocks)


def test_steiner_parameters_find_every_covered_dimension():
    # the whole space as its only block holds every subspace exactly once
    whole = [Subspace.from_span(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])]
    assert steiner_parameters(F2, whole) == _reference_steiner(F2, whole) == [1, 2, 3]
    # over the limit below the whole space only t = M is scanned, without
    # listing the 2^22 - 1 points of the block
    whole = [Subspace.from_span(F2, 22, [tuple(int(i == j) for j in range(22)) for i in range(22)])]
    assert steiner_parameters(F2, whole) == _reference_steiner(F2, whole) == [22]


# --- broken transversal designs ---------------------------------------------


def _reference_std(design):
    """(passed, detail) of the blocks, block-group-incidence, t-coverage and
    resolvability checks, by the per-block point scan, one intersection per
    block and one containment test per (t-subspace, block)."""
    field, t, b, n = design.field, design.t, design.b, design.ambient
    q = field.q
    zero_head = Subspace.from_span(
        field, n, [tuple(1 if i == b + j else 0 for i in range(n)) for j in range(design.m)]
    )
    point_index = {p.basis[0]: i for i, p in enumerate(design.points)}
    inside = [
        sorted(point_index[p] for p in projective_points(blk) if p in point_index)
        for blk in design.blocks
    ]
    meet = (True, "every block meets every group exactly once")
    for bi, pts in enumerate(inside):
        seen = set()
        for idx in pts:
            key = design.points[idx].basis[0][:b]
            if key in seen:
                meet = (False, f"block {bi} meets group {key} twice")
                break
            seen.add(key)
        if meet[0] and len(pts) != designs.gaussian(b, 1, q):
            meet = (False, f"block {bi} holds {len(pts)} points, expected {designs.gaussian(b, 1, q)}")
        if not meet[0]:
            break

    coverage = (True, f"scanned all {designs.gaussian(n, t, q)} t-subspaces")
    for w in enumerate_grassmannian(field, n, t):
        if intersection_dim(w, zero_head) != 0:
            continue
        pts = projective_points(w)
        if len({v[:b] for v in pts}) != len(pts):
            continue
        holders = [i for i, blk in enumerate(design.blocks) if contains_subspace(blk, w)]
        if len(holders) != 1:
            coverage = (False, f"t-subspace {w.basis} lies in {len(holders)} blocks")
            break

    blocks_ok = (
        len(design.blocks) == q ** (design.m * t)
        and all(blk.dim == b and blk.ambient == n for blk in design.blocks)
        and all(intersection_dim(blk, zero_head) == 0 for blk in design.blocks)
    )
    blocks = (blocks_ok, f"{len(design.blocks)} blocks of dim {b}, all avoiding the zero-head subspace")

    resolvable = (True, f"{len(design.classes)} classes of {q**design.m} blocks")
    for ci, cls in enumerate(design.classes):
        counts = {}
        for bi in cls:
            for idx in inside[bi]:
                counts[idx] = counts.get(idx, 0) + 1
        if len(counts) != len(design.points) or any(v != 1 for v in counts.values()):
            resolvable = (False, f"class {ci} does not cover every point exactly once")
            break
    return {"blocks": blocks, "block-group-incidence": meet, "t-coverage": coverage, "resolvability": resolvable}


def _corrupted(design, k, block):
    blocks = list(design.blocks)
    blocks[k] = block
    return TransversalDesign(
        design.field, design.t, design.b, design.m, design.points,
        design.group_keys, design.groups, tuple(blocks), design.classes,
    )


def corruptions(field, t, b, m, seed):
    """One block of build_std(field, t, b, m) swapped for: an earlier block, a
    random lifted block [I_b | A], and a block meeting the zero-head subspace."""
    design = build_std(field, t, b, m)
    rng = random.Random(seed)
    n, q = b + m, field.q
    k = rng.randrange(1, len(design.blocks))
    rows = [tuple(1 if i == r else 0 for i in range(b)) + tuple(rng.randrange(q) for _ in range(m)) for r in range(b)]
    meeting = list(design.blocks[k].basis)
    meeting[-1] = tuple(1 if i == b else 0 for i in range(n))
    return [
        ("repeat", _corrupted(design, k, design.blocks[k - 1])),
        ("lifted", _corrupted(design, k, Subspace.from_span(field, n, rows))),
        ("meets-zero-head", _corrupted(design, k, Subspace.from_span(field, n, meeting))),
    ]


@pytest.mark.parametrize(
    "field,t,b,m", [(F2, 1, 2, 2), (F2, 2, 2, 3), (F3, 1, 2, 2), (F3, 2, 2, 2)],
    ids=["q2-t1", "q2-t2", "q3-t1", "q3-t2"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_broken_std_names_the_reference_counterexample(field, t, b, m, seed):
    for kind, broken in corruptions(field, t, b, m, seed):
        report = {c.name: (c.passed, c.detail) for c in verify_std(broken)}
        reference = _reference_std(broken)
        assert {name: report[name] for name in reference} == reference, kind
        assert not report["t-coverage"][0] or not report["block-group-incidence"][0], kind


def test_intact_std_matches_reference():
    for field, t, b, m in [(F2, 1, 2, 2), (F2, 2, 2, 3), (F3, 1, 2, 2), (F3, 2, 2, 2), (F4, 1, 2, 2)]:
        design = build_std(field, t, b, m)
        report = {c.name: (c.passed, c.detail) for c in verify_std(design)}
        reference = _reference_std(design)
        assert {name: report[name] for name in reference} == reference


def test_verify_std_makes_no_containment_call(monkeypatch):
    calls = []

    def counted(s, w):
        calls.append(1)
        return contains_subspace(s, w)

    monkeypatch.setattr(linalg, "contains_subspace", counted, raising=False)
    monkeypatch.setattr(designs, "contains_subspace", counted, raising=False)
    assert all(c.passed is not False for c in verify_std(build_std(F3, 1, 4, 4)))
    assert calls == []
