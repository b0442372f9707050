"""Subspace counting and the combinatorial objects behind the code constructions.

Provides exact Gaussian binomial coefficients, deterministic enumeration of
Grassmannians, rank-metric codes with maximal rank distance, b-spreads of
GF(q)^M, and resolvable subspace transversal designs, together with
exhaustive verifiers that re-check every defining property from scratch.
The verifiers and the q-Steiner detection ask which blocks hold a point or
a subspace through one table, point_incidence, instead of containment tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, product

from .errors import (
    BadParams,
    NotDivisible,
    OutOfRange,
    TooLarge,
)
from .gf import ExtensionContext, extension_new
from .limits import guard
from .linalg import Subspace, _layout, _points


def gaussian(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient: number of k-dim subspaces of GF(q)^n."""
    if q < 2:
        raise OutOfRange(f"q must be >= 2, got {q}")
    if n < 0 or not 0 <= k <= n:
        raise OutOfRange(f"need 0 <= k <= n, got n={n}, k={k}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def gaussian_or_zero(n: int, k: int, q: int) -> int:
    """gaussian with the convention that out-of-range k counts zero subspaces."""
    if n < 0 or k < 0 or k > n:
        return 0
    return gaussian(n, k, q)


def enumerate_grassmannian(field, ambient: int, k: int, *, limit: int | None = None) -> tuple[Subspace, ...]:
    """All k-dim subspaces of GF(q)^ambient, sorted by their canonical basis.

    Subspaces are generated one per reduced-row-echelon pattern (pivot
    columns plus free entries) and then sorted lexicographically on the
    flattened basis, so the order is deterministic and index-stable.
    """
    q = field.q
    total = gaussian(ambient, k, q)
    guard(total, f"enumerating the {k}-dim subspaces of gf({q})^{ambient}", limit)
    out = []
    for pivots in combinations(range(ambient), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, ambient)
            if j not in pivot_set
        ]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * ambient for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append((tuple(tuple(r) for r in rows), pivots))
    assert len(out) == total
    out.sort()
    return tuple(Subspace.from_rref(field, ambient, rows, pivots) for rows, pivots in out)


# --- rank-metric codes -------------------------------------------------------


def build_gabidulin(ext: ExtensionContext, n: int, t: int) -> list[tuple[int, ...]]:
    """Evaluations of the q-degree-< t linearized polynomials at n basis points.

    Codewords are vectors over the extension field, one per coefficient
    tuple (a_0, .., a_{t-1}), ordered so that index = (encoding of
    a_1..a_{t-1}) * q^m + a_0. Minimum rank distance of the expanded
    matrices is n - t + 1.
    """
    if not 1 <= t <= n <= ext.degree:
        raise BadParams(f"need 1 <= t <= n <= extension degree, got t={t}, n={n}, degree={ext.degree}")
    # column i of the evaluation: the q^j-th powers of basis point i
    columns = [[ext.frobenius(g, j) for j in range(t)] for g in ext.basis[:n]]
    qm = ext.q
    codewords = []
    for tail_code in range(qm ** (t - 1)):
        tail = []
        rest = tail_code
        for _ in range(t - 1):
            tail.append(rest % qm)
            rest //= qm
        for a0 in range(qm):
            coeffs = [a0] + tail
            codewords.append(tuple(_ext_dot(ext, coeffs, col) for col in columns))
    return codewords


def _ext_dot(ext, coeffs, values) -> int:
    terms = [ext.mul(c, v) for c, v in zip(coeffs, values) if c and v]
    return reduce(ext.add, terms) if terms else 0


def _lifted_gabidulin(field, lead: int, b: int, m: int, t: int) -> list[Subspace]:
    """The blocks rowspace([0_lead | I_b | A]) of GF(q)^(lead+b+m), in codeword order.

    A runs over the b x m expansions of the codewords of
    build_gabidulin(GF(q^m), b, t); blocks of two codewords at rank
    distance b meet trivially.
    """
    ext = extension_new(field, m)
    heads = [(0,) * lead + tuple(1 if i == r else 0 for i in range(b)) for r in range(b)]
    pivots = range(lead, lead + b)
    return [
        Subspace.from_rref(
            field, lead + b + m, [h + ext.expand(x) for h, x in zip(heads, word)], pivots
        )
        for word in build_gabidulin(ext, b, t)
    ]


# --- spreads -----------------------------------------------------------------


@dataclass(frozen=True)
class SpreadDesign:
    """A partition of the nonzero vectors of GF(q)^M into b-dim subspaces."""

    field: object
    M: int
    b: int
    method: str
    blocks: tuple[Subspace, ...]
    unit_indices: tuple[int, ...]


def _unit_subspace(field, M: int, b: int, level: int) -> Subspace:
    """Coordinates b*level .. b*level+b-1 of GF(q)^M."""
    rows = []
    for r in range(b):
        v = [0] * M
        v[b * level + r] = 1
        rows.append(tuple(v))
    return Subspace.from_rref(field, M, rows, range(b * level, b * level + b))


def build_spread(field, M: int, b: int, method: str = "gabidulin-echelon") -> SpreadDesign:
    """A b-spread of GF(q)^M; requires b | M.

    gabidulin-echelon: echelon levels i = 0..M/b-1; level i holds the blocks
    rowspace([0 | I_b | A]) with the identity at columns b*i..b*i+b-1 and A
    running over the t = 1 Gabidulin codewords of width M - b*(i+1), the
    lifted blocks build_std uses; the last level is the final unit
    subspace alone. Level block counts telescope to (q^M - 1)/(q^b - 1).

    desarguesian: the lines of GF(q^b)^(M/b) expanded over GF(q).
    """
    if M < 1 or b < 1:
        raise OutOfRange(f"need positive dimensions, got M={M}, b={b}")
    if M % b:
        raise NotDivisible(f"a {b}-spread of dimension-{M} space needs b | M, got M={M}, b={b}")
    levels = M // b
    if method == "gabidulin-echelon":
        blocks: list[Subspace] = []
        units: list[int] = []
        for level in range(levels - 1):
            units.append(len(blocks))
            blocks.extend(_lifted_gabidulin(field, b * level, b, M - b * (level + 1), 1))
        units.append(len(blocks))
        blocks.append(_unit_subspace(field, M, b, levels - 1))
        return SpreadDesign(field, M, b, method, tuple(blocks), tuple(units))
    if method == "desarguesian":
        ext = extension_new(field, b)
        blocks = []
        for w in _projective_reps(ext, levels):
            rows = []
            for lam in ext.basis:
                row: list[int] = []
                for coord in w:
                    row.extend(ext.expand(ext.mul(lam, coord)))
                rows.append(tuple(row))
            blocks.append(Subspace.from_span(field, M, rows))
        lookup = {blk: i for i, blk in enumerate(blocks)}
        units = tuple(lookup[_unit_subspace(field, M, b, level)] for level in range(levels))
        return SpreadDesign(field, M, b, method, tuple(blocks), units)
    raise BadParams(f"unknown spread method {method!r}")


@dataclass(frozen=True)
class CheckOutcome:
    """One verified property; passed is None when skipped."""

    name: str
    passed: bool | None
    detail: str = ""


def point_incidence(blocks) -> dict[int, list[int]]:
    """Each packed projective point of the blocks -> the ascending indices of
    the blocks that hold it.

    A subspace lies in a block exactly when every row of its reduced row
    echelon basis does, and each such row has leading entry 1, so it is a
    key: the subspace's holders are the intersection of its rows' lists
    (_holders).

    The table of the last block tuple is kept and returned again for an
    equal tuple, so a design check, the dual-distance rule and the pair
    family of one run share it: it is shared and read-only, and no caller
    may change it or its lists.
    """
    return _point_incidence(tuple(blocks))


@lru_cache(maxsize=1)
def _point_incidence(blocks: tuple[Subspace, ...]) -> dict[int, list[int]]:
    table: dict[int, list[int]] = {}
    for idx, blk in enumerate(blocks):
        for p in _points(blk):
            table.setdefault(p, []).append(idx)
    return table


def _holders(incidence, w: Subspace) -> list[int]:
    """Ascending indices of the blocks of incidence that hold w."""
    first, *rest = (incidence.get(r, ()) for r in w.rows)
    return sorted(set(first).intersection(*rest))


def verify_spread(design: SpreadDesign, *, limit: int | None = None) -> tuple[CheckOutcome, ...]:
    """Re-check every defining spread property exhaustively."""
    field, M, b = design.field, design.M, design.b
    q = field.q
    checks = []

    expected = gaussian(M, 1, q) // gaussian(b, 1, q) if M % b == 0 else None
    checks.append(
        CheckOutcome(
            "block-count",
            len(design.blocks) == expected,
            f"got {len(design.blocks)}, expected {expected}",
        )
    )

    dims_ok = all(blk.dim == b and blk.ambient == M and blk.field is field for blk in design.blocks)
    checks.append(CheckOutcome("block-dimensions", dims_ok, f"all blocks {b}-dim in gf({q})^{M}"))

    # The blocks partition the nonzero vectors exactly when every point lies
    # in one block, and a point in two blocks is also where two blocks meet.
    try:
        guard(q**M, "spread partition check", limit)
    except TooLarge as exc:
        checks.append(CheckOutcome("partition", None, str(exc)))
        checks.append(CheckOutcome("pairwise-trivial-intersection", None, "skipped with partition"))
    else:
        incidence = point_incidence(design.blocks)
        clash = next(((p, h) for p, h in incidence.items() if len(h) > 1), None)
        covered = (q - 1) * len(incidence)
        detail = f"covered {covered} of {q**M - 1} nonzero vectors"
        if clash:
            point, (i, j, *_) = clash
            detail += f"; vector {_layout(field).unpack(point, M)} in blocks {i} and {j}"
        checks.append(CheckOutcome("partition", covered == q**M - 1 and clash is None, detail))
        checks.append(
            CheckOutcome(
                "pairwise-trivial-intersection",
                clash is None,
                f"blocks {i} and {j} intersect" if clash else "no point lies in two blocks",
            )
        )

    units_ok = all(
        design.blocks[idx] == _unit_subspace(field, M, b, level)
        for level, idx in enumerate(design.unit_indices)
    )
    checks.append(CheckOutcome("unit-blocks", units_ok, "declared unit indices match"))
    return tuple(checks)


# --- subspace transversal designs --------------------------------------------


@dataclass(frozen=True)
class TransversalDesign:
    """A resolvable subspace transversal design over GF(q)^(b+m).

    points: the 1-dim subspaces whose first b coordinates are not all zero,
    as canonical Subspace values in enumeration order. groups: partition of
    point indices keyed by the line of GF(q)^b spanned by those first b
    coordinates. blocks: b-dim subspaces, each meeting every group exactly
    once. classes: index ranges partitioning the blocks so that every class
    covers every point exactly once.
    """

    field: object
    t: int
    b: int
    m: int
    points: tuple[Subspace, ...]
    group_keys: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[int, ...], ...]
    blocks: tuple[Subspace, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def ambient(self) -> int:
        return self.b + self.m


def _projective_reps(field, n: int) -> list[tuple[int, ...]]:
    """Canonical representatives (leading coefficient 1) of all lines of GF(q)^n."""
    reps = []
    for lead in range(n):
        for tail in product(range(field.q), repeat=n - lead - 1):
            reps.append((0,) * lead + (1,) + tail)
    return reps


def build_std(field, t: int, b: int, m: int) -> TransversalDesign:
    """Resolvable transversal design from lifted rank-metric codewords.

    Blocks are rowspace([I_b | A]) where A is the b x m expansion of a
    codeword of the t-dim linearized evaluation code over GF(q^m); the
    parallel classes fix the coefficients a_1..a_{t-1} and vary a_0.
    """
    if not 1 <= t <= b <= m:
        raise BadParams(f"need 1 <= t <= b <= m, got t={t}, b={b}, m={m}")
    n = b + m

    point_reps = [v for v in _projective_reps(field, n) if any(v[:b])]
    points = tuple(Subspace.from_rref(field, n, (v,), (v.index(1),)) for v in point_reps)
    group_keys = _projective_reps(field, b)
    key_of = {key: k for k, key in enumerate(group_keys)}
    groups: list[list[int]] = [[] for _ in group_keys]
    for idx, v in enumerate(point_reps):
        groups[key_of[v[:b]]].append(idx)

    blocks = _lifted_gabidulin(field, 0, b, m, t)
    class_size = field.q**m
    classes = tuple(
        tuple(range(c * class_size, (c + 1) * class_size)) for c in range(len(blocks) // class_size)
    )
    return TransversalDesign(
        field, t, b, m, points, tuple(group_keys), tuple(map(tuple, groups)), tuple(blocks), classes
    )


def verify_std(design: TransversalDesign, *, limit: int | None = None) -> tuple[CheckOutcome, ...]:
    """Exhaustively re-check the transversal design axioms and resolvability."""
    field = design.field
    q = field.q
    t, b, m, n = design.t, design.b, design.m, design.ambient
    checks = []

    # points are compared packed; a packed point's first b entries are its head
    pack = _layout(field).pack
    head = (1 << (b * _layout(field).sym)) - 1
    expected_reps = [v for v in _projective_reps(field, n) if any(v[:b])]
    points_ok = (
        len(design.points) == gaussian(b, 1, q) * q**m
        and [p.rows for p in design.points] == [(pack(v),) for v in expected_reps]
        and all(p.ambient == n for p in design.points)
    )
    checks.append(
        CheckOutcome("points", points_ok, f"{len(design.points)} lines outside the zero-head subspace")
    )

    group_sizes_ok = (
        len(design.groups) == gaussian(b, 1, q)
        and all(len(g) == q**m for g in design.groups)
        and sorted(i for g in design.groups for i in g) == list(range(len(design.points)))
    )
    keys_ok = all(
        {design.points[i].rows[0] & head for i in grp} <= {pack(key)}
        for key, grp in zip(design.group_keys, design.groups)
    )
    checks.append(
        CheckOutcome(
            "group-partition",
            group_sizes_ok and keys_ok,
            f"{len(design.groups)} groups of size {q**m}",
        )
    )

    incidence = point_incidence(design.blocks)
    count_ok = len(design.blocks) == q ** (m * t)
    dims_ok = all(blk.dim == b and blk.ambient == n for blk in design.blocks)
    avoid_ok = all(p & head for p in incidence)
    checks.append(
        CheckOutcome(
            "blocks",
            count_ok and dims_ok and avoid_ok,
            f"{len(design.blocks)} blocks of dim {b}, all avoiding the zero-head subspace",
        )
    )

    inside: list[list[int]] = [[] for _ in design.blocks]
    for idx, p in enumerate(design.points):
        for bi in incidence.get(p.rows[0], ()):
            inside[bi].append(idx)
    meet_ok = True
    meet_detail = "every block meets every group exactly once"
    for bi, pts in enumerate(inside):
        heads = [design.points[idx].rows[0] & head for idx in pts]
        if len(set(heads)) != len(heads):
            twice = next(idx for i, idx in enumerate(pts) if heads[i] in heads[:i])
            meet_ok = False
            meet_detail = f"block {bi} meets group {design.points[twice].basis[0][:b]} twice"
            break
        if len(pts) != gaussian(b, 1, q):
            meet_ok = False
            meet_detail = f"block {bi} holds {len(pts)} points, expected {gaussian(b, 1, q)}"
            break
    checks.append(CheckOutcome("block-group-incidence", meet_ok, meet_detail))

    # Every eligible t-subspace (all points inside the point set, no two in
    # one group) must lie in exactly one block.
    try:
        guard(gaussian(n, t, q), "t-subspace coverage scan", limit)
    except TooLarge as exc:
        checks.append(CheckOutcome("t-coverage", None, str(exc)))
    else:
        coverage_ok = True
        coverage_detail = f"scanned all {gaussian(n, t, q)} t-subspaces"
        for w in enumerate_grassmannian(field, n, t, limit=limit):
            heads = {x & head for x in _points(w)}
            if 0 in heads or len(heads) != gaussian(t, 1, q):
                continue
            holders = _holders(incidence, w)
            if len(holders) != 1:
                coverage_ok = False
                coverage_detail = f"t-subspace {w.basis} lies in {len(holders)} blocks"
                break
        checks.append(CheckOutcome("t-coverage", coverage_ok, coverage_detail))

    resolvable_ok = sorted(i for cls in design.classes for i in cls) == list(range(len(design.blocks)))
    detail = f"{len(design.classes)} classes of {q**m} blocks"
    if resolvable_ok:
        for ci, cls in enumerate(design.classes):
            if sorted(idx for bi in cls for idx in inside[bi]) != list(range(len(design.points))):
                resolvable_ok = False
                detail = f"class {ci} does not cover every point exactly once"
                break
    checks.append(CheckOutcome("resolvability", resolvable_ok, detail))
    return tuple(checks)


# --- q-Steiner detection ------------------------------------------------------


def steiner_parameters(field, blocks, *, limit: int | None = None) -> list[int]:
    """All t for which the blocks cover every t-dim subspace exactly once.

    A whole-space block holds every subspace, and the other blocks' holders
    come from their point incidence. That is built for the first scan below
    the whole space within the limit, which implies the scan of points is,
    so it holds at most len(blocks) times the limit points.
    """
    if not blocks:
        return []
    ambient = blocks[0].ambient
    b = blocks[0].dim
    whole = sum(1 for blk in blocks if blk.dim == ambient)
    incidence: dict[int, list[int]] = {}
    out = []
    for t in range(1, b + 1):
        try:
            guard(gaussian(ambient, t, field.q), "Steiner coverage scan", limit)
        except TooLarge:  # an over-limit t simply is not checked
            continue
        if t < ambient and not incidence:
            incidence = point_incidence(tuple(blk for blk in blocks if blk.dim < ambient))
        scan = enumerate_grassmannian(field, ambient, t, limit=limit)
        if all(whole + len(_holders(incidence, w)) == 1 for w in scan):
            out.append(t)
    return out
