"""Helpers only the tests call, kept as oracles for what the package computes.

They give the reduced row echelon form and rank of a matrix, membership and
containment in a subspace, the vectors and points of a subspace, codeword
membership by solving against the generator, the algebraic check of a
recovery set's functionals, and the general classification of the subspaces
disjoint from a pair-family target. They run on the package's packed kernel
(`linalg._rref_rows`, `_residual`), not through its subset walk, weight
scan or verifiers, so a test can check those against them.
"""

from __future__ import annotations

from subspace_lrc.arraycode import ArrayCode
from subspace_lrc.errors import DimensionMismatch
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
    solve,
    subspace_sum,
    vec_mat,
)
from subspace_lrc.locality import RecoverySet


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


def is_codeword(code: ArrayCode, codeword: Mat) -> bool:
    if codeword.nrows != code.b or codeword.cols != code.n:
        raise DimensionMismatch(
            f"array is {codeword.nrows}x{codeword.cols}, code is {code.b}x{code.n}"
        )
    flat = tuple(
        codeword.rows[i][j] for j in range(code.n) for i in range(code.b)
    )
    return solve(code.generator.transpose(), flat) is not None


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
