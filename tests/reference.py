"""Helpers only the tests call, kept as oracles for what the package computes.

They give the reduced row echelon form and rank of a matrix, membership and
containment in a subspace, the vectors and points of a subspace, codeword
membership by solving against the generator, the algebraic check of a
recovery set's functionals, the general classification of the subspaces
disjoint from a pair-family target, and worst availability with every
target's pool packed, and the one-out-two-in improvement of an over-cap
packing as it first was. They run on the package's packed kernel
(`linalg._rref_rows`, `_residual`), not through its subset walk, weight
scan or verifiers, so a test can check those against them.

Solving is the exception: `linalg.solve`, the repair decoder and the
recovery functionals are one routine (`linalg._Combiner`), so the oracles
for them, `reference_rref_rows` and `reference_solve`, are Gauss-Jordan on
tuples with one field call per entry, and `is_codeword` solves with them.
The availability oracle reads its pools off the subset walk, which
tests/test_subset_walk.py checks against subspace sums, and packs each.

`reference_parse_matrix` and `reference_parse_bundle` are the text readers
as they were before the bundle was read in one pass: each matrix is joined
back into text, split again and built as a `Mat`, and an entry is whatever
int() reads. tests/test_reader_differential.py checks the package's readers
against them.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, islice

from subspace_lrc.arraycode import ArrayCode
from subspace_lrc.errors import AmbientMismatch, DimensionMismatch, Inconsistent, OutOfRange
from subspace_lrc.gf import field_from_order, parse_field
from subspace_lrc.limits import guard
from subspace_lrc.linalg import (
    Mat,
    Subspace,
    _check_same_space,
    _combinations,
    _layout,
    _packed_rows,
    _points,
    _residual,
    _rref_rows,
    row_space,
    subspace_sum,
    vec_mat,
)
from subspace_lrc.locality import (
    AvailabilityResult,
    RecoverySet,
    _minimal_recovery_sets,
    _packing_value,
    max_disjoint_packing,
)


def rref(m: Mat) -> tuple[Mat, int, tuple[int, ...]]:
    """Reduced row echelon form, rank and pivot columns."""
    basis, pivots = _rref_rows(m.field, m.cols, _packed_rows(m))
    unpack = _layout(m.field).unpack
    out = tuple(unpack(r, m.cols) for r in basis) + ((0,) * m.cols,) * (m.nrows - len(basis))
    return Mat(m.field, out, m.cols), len(pivots), tuple(pivots)


def rank(m: Mat) -> int:
    return len(_rref_rows(m.field, m.cols, _packed_rows(m))[1])


def contains_vector(s: Subspace, v) -> bool:
    v = tuple(v)
    if len(v) != s.ambient:
        raise DimensionMismatch(f"vector length {len(v)} in ambient {s.ambient}")
    return not _residual(s.field, s.ambient, s.rows, s.pivots, _layout(s.field).pack(v))


def contains_subspace(s: Subspace, t: Subspace) -> bool:
    """Whether t lies in s. Every vector's leading entry sits on a pivot of its
    subspace, so t's pivots must be among s's before any row is reduced."""
    _check_same_space(s, t)
    if len(s.rows) == s.ambient:
        return True
    if not set(t.pivots).issubset(s.pivots):
        return False
    for v in t.rows:
        if _residual(s.field, s.ambient, s.rows, s.pivots, v):
            return False
    return True


def intersection_dim(a: Subspace, b: Subspace) -> int:
    _check_same_space(a, b)
    return a.dim + b.dim - subspace_sum(a, b).dim


def enumerate_vectors(s: Subspace, *, limit: int | None = None) -> list[tuple[int, ...]]:
    """All q^dim vectors of s in coefficient-lexicographic order."""
    q = s.field.q
    guard(q**s.dim, f"enumerating a subspace of dimension {s.dim}", limit)
    unpack = _layout(s.field).unpack
    return [unpack(x, s.ambient) for x in _combinations(s, s.rows)]


def projective_points(s: Subspace) -> list[tuple[int, ...]]:
    """The points of s (see _points), unpacked, in ascending order."""
    unpack = _layout(s.field).unpack
    return [unpack(x, s.ambient) for x in _points(s)]


def reference_rref_rows(field, rows, cols):
    """Gauss-Jordan on tuples; returns (all rows, zero rows last; pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    pr = 0
    for c in range(cols):
        pv = next((r for r in range(pr, len(rows)) if rows[r][c]), None)
        if pv is None:
            continue
        rows[pr], rows[pv] = rows[pv], rows[pr]
        inv = field.inv(rows[pr][c])
        rows[pr] = [field.mul(inv, x) for x in rows[pr]]
        prow = rows[pr]
        for r in range(len(rows)):
            f = rows[r][c]
            if f and r != pr:
                rows[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[r], prow)]
        pivots.append(c)
        pr += 1
    return [tuple(r) for r in rows], pivots


def reference_solve(field, rows, cols, rhs):
    """One x with (the matrix with these rows) @ x = rhs, free variables 0; None if inconsistent."""
    reduced, pivots = reference_rref_rows(field, [tuple(r) + (y,) for r, y in zip(rows, rhs)], cols + 1)
    if cols in pivots:
        return None
    x = [0] * cols
    for row, p in zip(reduced, pivots):
        x[p] = row[cols]
    return tuple(x)


def is_codeword(code: ArrayCode, codeword: Mat) -> bool:
    if codeword.nrows != code.b or codeword.cols != code.n:
        raise DimensionMismatch(
            f"array is {codeword.nrows}x{codeword.cols}, code is {code.b}x{code.n}"
        )
    flat = tuple(
        codeword.rows[i][j] for j in range(code.n) for i in range(code.b)
    )
    g = code.generator.transpose()
    return reference_solve(code.field, g.rows, g.cols, flat) is not None


def validate_recovery(code: ArrayCode, rset: RecoverySet) -> bool:
    """Check the functionals algebraically: they must hold for every codeword."""
    if rset.column in rset.columns:
        return False
    cols = tuple(code.column_vector(i, m) for m in rset.columns for i in range(code.b))
    helpers = Mat(code.field, cols, code.M)
    rows = range(code.b) if rset.kind == "node" else (rset.row,)
    targets = [code.column_vector(i, rset.column) for i in rows]
    if len(rset.coefficients) != len(targets) or any(len(c) != helpers.nrows for c in rset.coefficients):
        return False
    return all(vec_mat(coeff, helpers) == target for coeff, target in zip(rset.coefficients, targets))


def disjoint_classes(field, grass, target, met) -> dict[tuple, dict[tuple, int]]:
    """locality._disjoint_classes by the general _residual and _rref_rows,
    over every field: classes[ubar][key] = index for the subspaces of grass
    outside met."""
    M = target.ambient
    L = _layout(field)
    top = M * L.sym
    low = (1 << top) - 1
    disjoint_classes: dict[tuple, dict[tuple, int]] = {}
    for idx, s in enumerate(grass):
        if idx in met:
            continue
        # w = graph of a map from its projection ubar (off the target's
        # pivots) into the target: reduce the packed rows [u | w] to read
        # ubar's canonical basis and, at the target's pivots, the map's
        # coordinates
        split = [_residual(field, M, target.rows, target.pivots, r) | r << top for r in s.rows]
        split, pivots = _rref_rows(field, 2 * M, split)
        assert pivots[-1] < M, "a subspace disjoint from the target projects onto a plane"
        key = tuple(tuple(L.entry(row, M + p) for p in target.pivots) for row in split)
        disjoint_classes.setdefault(tuple(row & low for row in split), {})[key] = idx
    return disjoint_classes


def reference_worst_availability(code: ArrayCode, groups, *, exact_cap, limit) -> list:
    """locality._worst_availability with nothing settled: every target's pool
    is packed, and the group's first pool with the smallest value gives the
    family."""
    pools = iter(_minimal_recovery_sets(code, [t for g in groups for t in g], limit=limit))
    out = []
    for g in groups:
        group = list(islice(pools, len(g)))
        values = [_packing_value(p, exact_cap) for p in group]
        pool = group[values.index(min(values))]
        value, sets, exact = max_disjoint_packing(pool, exact_cap=exact_cap)
        assert value == min(values), "a pool's value and its packing disagree"
        out.append(AvailabilityResult(value, exact, sets))
    return out


def reference_improve_packing(cand, chosen):
    """locality._improve_packing as it first was: list membership, and the
    union of the other chosen sets rebuilt for each dropped one."""
    chosen = list(chosen)
    improved = True
    while improved:
        improved = False
        for drop in list(chosen):
            rest = set().union(*(s for s in chosen if s is not drop))
            free = [c for c in cand if c not in chosen and rest.isdisjoint(c)]
            pair = next(((a, c) for a, c in combinations(free, 2) if a.isdisjoint(c)), None)
            if pair:
                chosen.remove(drop)
                chosen.extend(pair)
                improved = True
                break
    return chosen


def reference_parse_matrix(text: str, field=None) -> Mat:
    """The matrix text format read token by token with int()."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise DimensionMismatch("empty matrix text")
    try:
        q, nrows, cols = map(int, lines[0].split())
    except ValueError:
        raise DimensionMismatch(f"matrix header must be 'q rows cols', got {lines[0]!r}") from None
    if field is None:
        field = field_from_order(q)
    elif field.q != q:
        raise AmbientMismatch(f"matrix is over gf of order {q}, expected order {field.q}")
    if len(lines) != 1 + nrows:
        raise DimensionMismatch(f"expected {nrows} rows, got {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], 1):
        parts = ln.split()
        if len(parts) != cols:
            raise DimensionMismatch(f"row {i}: expected {cols} entries, got {len(parts)}")
        try:
            rows.append(tuple(map(int, parts)))
        except ValueError:
            bad = next(x for x in parts if not _reads_as_int(x))
            raise OutOfRange(f"row {i}: entry {bad!r} is not an integer") from None
    try:
        return Mat.from_rows(field, rows, cols)
    except OutOfRange:
        i, bad = next((i, x) for i, r in enumerate(rows, 1) for x in r if not 0 <= x < q)
        raise OutOfRange(f"row {i}: entry {bad} outside field of order {q}") from None


def _reads_as_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


_BUNDLE_HEADER = ("field", "b", "n", "M", "provenance")


def reference_parse_bundle(text: str) -> ArrayCode:
    """A bundle read matrix by matrix through reference_parse_matrix, each
    declared subspace built as a Mat and reduced, each thick column compared
    with its declared rows on its own."""
    lines = [ln for ln in (raw.rstrip() for raw in text.splitlines()) if ln.strip()]
    if not lines or lines[0] != "bundle array-code":
        raise Inconsistent(f"not a code bundle: first line {lines[0] if lines else ''!r}")
    if "generator" not in lines:
        raise Inconsistent("bundle missing the generator section")
    start = lines.index("generator")
    header: dict[str, str] = {}
    for ln in lines[1:start]:
        key, *value = ln.split(None, 1)
        if key not in _BUNDLE_HEADER or key in header:
            raise Inconsistent(f"unexpected bundle header line {ln!r}")
        header[key] = value[0] if value else ""
    for key in _BUNDLE_HEADER:
        if key not in header:
            raise Inconsistent(f"bundle header {key!r} is missing")
    try:
        field = parse_field(header["field"])
    except ValueError as exc:
        raise Inconsistent(f"bundle header 'field': {exc}") from exc

    def header_int(key):
        try:
            return int(header[key])
        except ValueError:
            raise Inconsistent(f"bundle header {key!r} is not an integer: {header[key]!r}") from None

    b, n, M = (header_int(key) for key in ("b", "n", "M"))
    if b < 1:
        raise Inconsistent(f"bundle header 'b' must be at least 1, got {b}")
    if M < 1:
        raise Inconsistent(f"bundle header 'M' must be at least 1, got {M}")

    def matrix(pos, what):
        head = lines[pos].split() if pos < len(lines) else []
        try:
            end = pos + 1 + (int(head[1]) if len(head) == 3 and head[1].isdecimal() else 0)
            return reference_parse_matrix("\n".join(lines[pos:end]), field), end
        except ValueError as exc:
            raise Inconsistent(f"malformed code bundle: {what}: {exc}") from exc

    gen, pos = matrix(start + 1, "generator")
    section = lines[pos].split() if pos < len(lines) else []
    if not section or section[0] != "subspaces":
        raise Inconsistent("bundle missing the subspaces section")
    if len(section) != 2 or not section[1].isdecimal():
        raise Inconsistent(f"malformed code bundle: subspaces line {lines[pos]!r}")
    count = int(section[1])
    mats = []
    pos += 1
    for k in range(count):
        if pos >= len(lines):
            raise Inconsistent(f"bundle declares {count} subspaces, holds {len(mats)}")
        mat, pos = matrix(pos, f"subspace {k + 1} of {count}")
        mats.append(mat)
    if gen.nrows != M or gen.cols != b * n or count != n:
        raise Inconsistent(
            f"bundle shapes disagree: generator {gen.nrows}x{gen.cols}, declared M={M}, b={b}, n={n}"
        )
    if pos < len(lines):
        raise Inconsistent(f"bundle declares {count} subspaces, then holds line {lines[pos]!r}")
    flat = list(zip(*gen.rows))
    zero = (0,) * M
    subs, spans = [], []
    for j, mat in enumerate(mats):
        subs.append(row_space(mat))
        column = tuple(flat[j * b : (j + 1) * b])
        written = mat.cols == M and column == mat.rows + (zero,) * (b - mat.nrows)
        spans.append(subs[-1] if written else Subspace.from_span(field, M, column))
    spanned = reduce(subspace_sum, spans, Subspace.zero(field, M)).dim
    if spanned != M:
        raise Inconsistent(f"generator rank {spanned} differs from declared dimension {M}")
    for j, (span, s) in enumerate(zip(spans, subs)):
        if span != s:
            raise Inconsistent(f"thick column {j + 1} does not span its declared subspace")
    return ArrayCode(field, b, n, M, gen, tuple(spans), header["provenance"])
