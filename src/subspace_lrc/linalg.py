"""Exact matrices, reduced row echelon form and canonical subspaces over GF(q).

Vectors are tuples of element encodings; matrices carry their field context.
A Subspace is always stored by its reduced-row-echelon basis with zero rows
dropped, which makes equality of subspaces plain entrywise equality of the
stored data and makes every enumeration in the package deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import AmbientMismatch, DimensionMismatch, OutOfRange
from .limits import guard


@dataclass(frozen=True)
class Mat:
    """Immutable matrix over a field context; rows of equal length."""

    field: object
    rows: tuple[tuple[int, ...], ...]
    cols: int

    @staticmethod
    def from_rows(field, rows, cols: int | None = None) -> "Mat":
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionMismatch("rows of unequal length")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"declared {cols} columns, rows have {width}")
            cols = width
        elif cols is None:
            raise DimensionMismatch("column count required for a matrix with no rows")
        q = field.q
        for r in rows:
            for x in r:
                if not 0 <= x < q:
                    raise OutOfRange(f"entry {x} outside field of order {q}")
        return Mat(field, rows, cols)

    @staticmethod
    def identity(field, n: int) -> "Mat":
        return Mat(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(field, r: int, c: int) -> "Mat":
        return Mat(field, tuple((0,) * c for _ in range(r)), c)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Mat":
        if self.rows:
            flipped = tuple(tuple(r[j] for r in self.rows) for j in range(self.cols))
        else:
            flipped = tuple(() for _ in range(self.cols))
        return Mat(self.field, flipped, self.nrows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise AmbientMismatch("matrix product across different fields")
        if self.cols != other.nrows:
            raise DimensionMismatch(f"cannot multiply {self.nrows}x{self.cols} by {other.nrows}x{other.cols}")
        F = self.field
        out = []
        for r in self.rows:
            row = [0] * other.cols
            for k, a in enumerate(r):
                if a:
                    orow = other.rows[k]
                    row = [F.add(x, F.mul(a, y)) for x, y in zip(row, orow)]
            out.append(tuple(row))
        return Mat(F, tuple(out), other.cols)


def vec_add(field, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_scale(field, c: int, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(field.mul(c, x) for x in v)


def vec_dot(field, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def mat_vec(m: Mat, v: tuple[int, ...]) -> tuple[int, ...]:
    if len(v) != m.cols:
        raise DimensionMismatch("vector length does not match column count")
    return tuple(vec_dot(m.field, r, v) for r in m.rows)


def vec_mat(v: tuple[int, ...], m: Mat) -> tuple[int, ...]:
    if len(v) != m.nrows:
        raise DimensionMismatch("vector length does not match row count")
    F = m.field
    out = [0] * m.cols
    for c, r in zip(v, m.rows):
        if c:
            out = [F.add(x, F.mul(c, y)) for x, y in zip(out, r)]
    return tuple(out)


def _rref_rows(field, rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """In-place Gauss-Jordan; returns (rows, pivot column list)."""
    pivots: list[int] = []
    pr = 0
    nrows = len(rows)
    for c in range(cols):
        pv = None
        for r in range(pr, nrows):
            if rows[r][c]:
                pv = r
                break
        if pv is None:
            continue
        rows[pr], rows[pv] = rows[pv], rows[pr]
        lead = rows[pr][c]
        if lead != 1:
            inv = field.inv(lead)
            rows[pr] = [field.mul(inv, x) for x in rows[pr]]
        prow = rows[pr]
        for r in range(nrows):
            f = rows[r][c]
            if f and r != pr:
                rows[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[r], prow)]
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def rref(m: Mat) -> tuple[Mat, int, tuple[int, ...]]:
    """Reduced row echelon form, rank and pivot columns."""
    rows, pivots = _rref_rows(m.field, [list(r) for r in m.rows], m.cols)
    return Mat(m.field, tuple(tuple(r) for r in rows), m.cols), len(pivots), tuple(pivots)


def rank(m: Mat) -> int:
    return rref(m)[1]


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(q)^ambient in canonical form.

    basis rows are the reduced row echelon basis (no zero rows), so two
    Subspace values are equal exactly when they are the same subspace.
    """

    field: object
    ambient: int
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_span(field, ambient: int, vectors) -> "Subspace":
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatch(f"vector length {len(v)} in ambient {ambient}")
        rows, pivots = _rref_rows(field, vectors, ambient)
        basis = tuple(tuple(r) for r in rows[: len(pivots)])
        return Subspace(field, ambient, basis, tuple(pivots))

    @staticmethod
    def zero(field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, (), ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> Mat:
        return Mat(self.field, self.basis, self.ambient)


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient != b.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")


def row_space(m: Mat) -> Subspace:
    return Subspace.from_span(m.field, m.cols, m.rows)


def column_space(m: Mat) -> Subspace:
    return row_space(m.transpose())


def null_space(m: Mat) -> Subspace:
    """Right kernel {x : m @ x = 0} as a canonical subspace of GF(q)^cols."""
    F = m.field
    reduced, _, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    vectors = []
    for f in free:
        x = [0] * m.cols
        x[f] = 1
        for i, p in enumerate(pivots):
            x[p] = F.neg(reduced.rows[i][f])
        vectors.append(x)
    return Subspace.from_span(F, m.cols, vectors)


def reduce_vector(s: Subspace, v: tuple[int, ...]) -> tuple[int, ...]:
    """Residual of v after eliminating the pivots of s; zero iff v is in s."""
    if len(v) != s.ambient:
        raise DimensionMismatch(f"vector length {len(v)} in ambient {s.ambient}")
    F = s.field
    v = list(v)
    for row, p in zip(s.basis, s.pivots):
        c = v[p]
        if c:
            v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def contains_vector(s: Subspace, v) -> bool:
    return not any(reduce_vector(s, tuple(v)))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_space(a, b)
    return Subspace.from_span(a.field, a.ambient, a.basis + b.basis)


def contains_subspace(s: Subspace, t: Subspace) -> bool:
    _check_same_space(s, t)
    return all(contains_vector(s, v) for v in t.basis)


def intersection_dim(a: Subspace, b: Subspace) -> int:
    _check_same_space(a, b)
    return a.dim + b.dim - subspace_sum(a, b).dim


def solve(m: Mat, rhs: tuple[int, ...]):
    """One solution x of m @ x = rhs, or None if inconsistent (free vars -> 0)."""
    if len(rhs) != m.nrows:
        raise DimensionMismatch("right-hand side length does not match row count")
    F = m.field
    aug = [list(r) + [y] for r, y in zip(m.rows, rhs)]
    rows, pivots = _rref_rows(F, aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for row, p in zip(rows, pivots):
        x[p] = row[m.cols]
    return tuple(x)


def enumerate_vectors(s: Subspace, *, limit: int | None = None) -> list[tuple[int, ...]]:
    """All q^dim vectors of s in coefficient-lexicographic order."""
    q = s.field.q
    guard(q**s.dim, f"enumerating a subspace of dimension {s.dim}", limit)
    F = s.field
    out = []
    for coeffs in product(range(q), repeat=s.dim):
        v = (0,) * s.ambient
        for c, row in zip(coeffs, s.basis):
            if c:
                v = vec_add(F, v, vec_scale(F, c, row))
        out.append(v)
    return out


def projective_points(s: Subspace) -> list[tuple[int, ...]]:
    """The points of s: its nonzero vectors whose first nonzero entry is 1, sorted.

    Such a vector has coefficient 1 on some basis row i and 0 on the rows
    before it, because its leading entry sits on pivot i; so the points are
    listed directly instead of normalising all q^dim vectors.
    """
    F = s.field
    out = []
    for i, lead in enumerate(s.basis):
        rest = s.basis[i + 1 :]
        for coeffs in product(range(F.q), repeat=len(rest)):
            v = lead
            for c, row in zip(coeffs, rest):
                if c:
                    v = vec_add(F, v, vec_scale(F, c, row))
            out.append(v)
    return sorted(out)


def _subset_sums(subspaces, columns, size: int):
    """Every size-element subset of columns in lex order, with the sum of
    the subspaces it indexes.

    Partial sums of the current subset's prefixes stay on a stack and are
    shared with the next subset: a singleton's sum is its subspace, each
    deeper element costs one subspace_sum, and a prefix that already spans
    the ambient space is carried without reduction.
    """
    stack: list[Subspace] = []
    prev = (-1,) * size
    for subset in combinations(columns, size):
        k = 0
        while prev[k] == subset[k]:
            k += 1
        del stack[k:]
        for m in subset[k:]:
            if not stack:
                stack.append(subspaces[m])
            elif stack[-1].dim == stack[-1].ambient:
                stack.append(stack[-1])
            else:
                stack.append(subspace_sum(stack[-1], subspaces[m]))
        prev = subset
        yield subset, stack[-1]


def coset_representatives(s: Subspace, *, limit: int | None = None) -> list[tuple[int, ...]]:
    """The lexicographically smallest representative of every coset of s.

    A vector is the smallest element of its coset exactly when all its pivot
    coordinates (pivots of the canonical basis of s) are zero, so the
    representatives are the q^(ambient-dim) vectors supported on the free
    coordinates, enumerated in lexicographic vector order.
    """
    q = s.field.q
    free = [c for c in range(s.ambient) if c not in set(s.pivots)]
    guard(q ** len(free), "enumerating coset representatives", limit)
    out = []
    for assignment in product(range(q), repeat=len(free)):
        v = [0] * s.ambient
        for pos, val in zip(free, assignment):
            v[pos] = val
        out.append(tuple(v))
    return out


# --- matrix text format -----------------------------------------------------
# Header line "q rows cols", then one line of element encodings per row.


def format_matrix(m: Mat) -> str:
    lines = [f"{m.field.q} {m.nrows} {m.cols}"]
    for r in m.rows:
        lines.append(" ".join(str(x) for x in r))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, field=None) -> Mat:
    """Parse the matrix text format; field inferred from the header unless given."""
    from .gf import field_from_order

    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise DimensionMismatch("empty matrix text")
    head = lines[0].split()
    if len(head) != 3:
        raise DimensionMismatch(f"matrix header must be 'q rows cols', got {lines[0]!r}")
    q, nrows, cols = (int(x) for x in head)
    if field is None:
        field = field_from_order(q)
    elif field.q != q:
        raise AmbientMismatch(f"matrix is over gf of order {q}, expected order {field.q}")
    if len(lines) != 1 + nrows:
        raise DimensionMismatch(f"expected {nrows} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != cols:
            raise DimensionMismatch(f"expected {cols} entries per row, got {len(parts)}")
        rows.append(tuple(int(x) for x in parts))
    return Mat.from_rows(field, rows, cols)
