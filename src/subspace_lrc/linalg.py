"""Exact matrices, reduced row echelon form and canonical subspaces over GF(q).

Vectors cross the module boundary (Mat rows, Subspace.basis, the matrix text
format) as tuples of element encodings; matrices carry their field context.
A Subspace is always stored by its reduced-row-echelon basis with zero rows
dropped, which makes equality of subspaces plain equality of the stored data
and makes every enumeration in the package deterministic.

The elimination kernel runs on packed rows, and Subspace stores its basis
packed. An element of GF(p^k) is the int whose base-p digits are its
coordinates over GF(p), and those coordinates add digitwise mod p, so a
vector is one Python int with k digit slots per entry, entry 0 lowest.
For p = 2 a slot is one bit and adding vectors is one XOR; for odd p a slot
has a guard bit and an addition is a handful of whole-int operations (see
_Layout and _Slots, which the weight scan in arraycode shares). Entries are
range-checked once, when a vector is packed (in one int() call over the
entries as digits: base 2^sym when an entry takes at most 5 bits, binary
for the weight scan's layout over a field of at most 256 elements);
elimination makes no field call beyond one inverse per pivot whose
leading entry is not 1.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

from .errors import AmbientMismatch, DimensionMismatch, OutOfRange
from .gf import field_from_order


class _Layout:
    """Digit-slot packing of the elements of one field.

    A slot is s bits: s = 1 for p = 2, else s = bitlen(2p - 2) + 1, whose top
    bit is a guard. A slot sum t < 2p - 1 never reaches the next slot, adding
    2^(s-1) - p to it sets the guard exactly when t >= p, and the masked
    guards shifted down, times p, subtract p from those slots (_Slots.add).
    Each element takes k = log_p(q) slots, sym = k s bits.
    """

    def __init__(self, field):
        q, p = field.q, field.p
        self.field, self.q, self.p = field, q, p
        self.odd = p != 2
        self.slot = (2 * p - 2).bit_length() + 1 if self.odd else 1
        k, top = 0, 1
        while top < q:
            top *= p
            k += 1
        self.k = k
        self.sym = k * self.slot
        self.mask = (1 << self.sym) - 1
        spread = list(range(q))
        if self.odd and k > 1:
            for x in range(q):
                y, at, spread[x] = x, 0, 0
                while y:
                    spread[x] |= (y % p) << at
                    y //= p
                    at += self.slot
        self.spread = spread
        # the element a packed entry stands for; None when they coincide
        self.element = {v: x for x, v in enumerate(spread)} if self.odd and k > 1 else None
        self._terms: dict[int, tuple] = {}
        # a packed vector read as base-2^sym digits; int() parses up to base
        # 32, and '!', no digit, stands for an entry outside the field
        self.digits = None
        if self.sym <= 5:
            table = bytearray(b"!" * 256)
            for x in range(q):
                table[x] = ord("0123456789abcdefghijklmnopqrstuv"[spread[x]])
            self.digits = bytes(table)
        # the same in binary, sym digits an entry, for a layout with gaps
        self.bits = None
        if q <= 256:
            self.bits = ["!"] * 256
            for x in range(q):
                self.bits[x] = format(spread[x], f"0{self.sym}b")

    def pack(self, v, b: int = 1, width: int | None = None) -> int:
        """Entry i*b + j of v at bit i*width + j*sym (width defaults to b*sym).

        v is read as one digit string: base 2^sym digits without a width,
        binary with width - b*sym zeros between groups of b entries."""
        q, sym, spread = self.q, self.sym, self.spread
        try:
            if width is None and self.digits is not None:
                return int(bytes(v[::-1]).translate(self.digits), 1 << sym)
            if width is not None and self.bits is not None and len(v) % b == 0:
                node = b * sym
                s = bytes(v[::-1]).decode("latin-1").translate(self.bits)
                return int(("0" * (width - node)).join([s[i : i + node] for i in range(0, len(s), node)]), 2)
        except (TypeError, ValueError):
            pass  # no entries, one outside the field or an iterator: the loop names it
        out = 0
        for idx, x in enumerate(v):
            if x:
                if not 0 < x < q:
                    raise OutOfRange(f"entry {x} outside field of order {q}")
                if width is None:
                    out |= spread[x] << (idx * sym)
                else:
                    i, j = divmod(idx, b)
                    out |= spread[x] << (i * width + j * sym)
        return out

    def unpack(self, x: int, n: int) -> tuple[int, ...]:
        return tuple(self.entry(x, c) for c in range(n))

    def entry(self, x: int, c: int) -> int:
        f = (x >> (c * self.sym)) & self.mask
        return f if self.element is None else self.element[f]

    def terms(self, c: int) -> tuple:
        """(shift, pattern) pairs with c * x = sum of ((x >> shift) & low) * pattern.

        A negative c stands for -(-c). Digit i of an entry, read bit by bit,
        contributes 2^b * c * p^i for each of its set bits b, and those
        products are single entries, so one multiplication places them in
        every entry at once. Built on first use, at most 2q per field.
        """
        out = self._terms.get(c)
        if out is None:
            F, p = self.field, self.p
            e = c if c > 0 else F.neg(-c)
            pairs = []
            for i in range(self.k):
                y = F.mul(e, p**i)
                for b in range((p - 1).bit_length()):
                    z = F.mul(y, (1 << b) % p)
                    if z:
                        pairs.append((i * self.slot + b, self.spread[z]))
            out = self._terms[c] = tuple(pairs)
        return out


class _Slots:
    """Addition and scaling of packed vectors whose entries start at the set bits of low."""

    def __init__(self, layout: _Layout, low: int):
        self.layout, self.low = layout, low
        self.p, self.odd = layout.p, layout.odd
        self.prime = layout.k == 1
        self.shift = layout.slot - 1
        # bit 0 of every slot, then the guard reduction's masks
        slots = low * (((1 << layout.sym) - 1) // ((1 << layout.slot) - 1))
        self.carry = slots * ((1 << self.shift) - self.p) if self.odd else 0
        self.high = slots << self.shift

    def add(self, u: int, v: int) -> int:
        if not self.odd:
            return u ^ v
        t = u + v
        return t - (((t + self.carry) & self.high) >> self.shift) * self.p

    def scale(self, v: int, c: int) -> int:
        """c * v for a field element c; a negative c stands for -(-c)."""
        if c == 1:
            return v
        if self.prime:
            # c * v is v added c times: double and add
            c %= self.p
            acc = 0
            while True:
                if c & 1:
                    acc = self.add(acc, v)
                c >>= 1
                if not c:
                    return acc
                v = self.add(v, v)
        acc, low = 0, self.low
        for shift, pattern in self.layout.terms(c):
            acc = self.add(acc, ((v >> shift) & low) * pattern)
        return acc


@lru_cache(maxsize=64)
def _layout(field) -> _Layout:
    return _Layout(field)


@lru_cache(maxsize=256)
def _vectors(field, n: int) -> _Slots:
    """Slots of length-n vectors, entry c at bit c * sym."""
    sym = _layout(field).sym
    return _Slots(_layout(field), ((1 << (n * sym)) - 1) // ((1 << sym) - 1))


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
            if r and (min(r) < 0 or max(r) >= q):
                bad = next(x for x in r if not 0 <= x < q)
                raise OutOfRange(f"entry {bad} outside field of order {q}")
        return Mat(field, rows, cols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Mat":
        if self.rows:
            flipped = tuple(tuple(r[j] for r in self.rows) for j in range(self.cols))
        else:
            flipped = tuple(() for _ in range(self.cols))
        return Mat(self.field, flipped, self.nrows)


def vec_dot(field, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def vec_mat(v: tuple[int, ...], m: Mat) -> tuple[int, ...]:
    if len(v) != m.nrows:
        raise DimensionMismatch("vector length does not match row count")
    F = m.field
    out = [0] * m.cols
    for c, r in zip(v, m.rows):
        if c:
            out = [F.add(x, F.mul(c, y)) for x, y in zip(out, r)]
    return tuple(out)


def _residual(field, n: int, rows, pivots, v: int) -> int:
    """Packed length-n v minus its component at the pivots of reduced echelon
    rows; zero iff v lies in their span."""
    if field.q == 2:
        for row, p in zip(rows, pivots):
            if v >> p & 1:
                v ^= row
        return v
    V = _vectors(field, n)
    entry = V.layout.entry
    for row, p in zip(rows, pivots):
        f = entry(v, p)
        if f:
            v = V.add(v, V.scale(row, -f))
    return v


def _rref_rows(field, n: int, vectors, basis=(), pivots=(), *, top: bool = False):
    """Insert packed length-n vectors into a reduced echelon basis; returns (rows, pivots).

    basis holds packed rows sorted by pivot column, each 1 at its pivot and 0
    at every other row's pivot. A vector is reduced at the pivots; a nonzero
    residual is scaled to 1 at its lowest entry (its highest with top) and
    cleared from the other rows. The rows stay sorted by pivot, so the result
    is the reduced row echelon basis of the span, whatever the input order.
    """
    basis, pivots = list(basis), list(pivots)
    V = None if field.q == 2 else _vectors(field, n)
    for v in vectors:
        v = _residual(field, n, basis, pivots, v)
        if not v:
            continue
        if V is None:
            c = v.bit_length() - 1 if top else (v & -v).bit_length() - 1
            for i, row in enumerate(basis):
                if row >> c & 1:
                    basis[i] = row ^ v
        else:
            entry = V.layout.entry
            c = (v.bit_length() - 1 if top else (v & -v).bit_length() - 1) // V.layout.sym
            lead = entry(v, c)
            if lead != 1:
                v = V.scale(v, field.inv(lead))
            for i, row in enumerate(basis):
                f = entry(row, c)
                if f:
                    basis[i] = V.add(row, V.scale(v, -f))
        at = bisect(pivots, c)
        basis.insert(at, v)
        pivots.insert(at, c)
    return basis, pivots


def _packed_rows(m: Mat) -> list[int]:
    pack = _layout(m.field).pack
    return [pack(r) for r in m.rows]


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(q)^ambient in canonical form.

    rows are the reduced row echelon basis (no zero rows), each packed into
    one int (see _Layout), so two Subspace values are equal exactly when they
    are the same subspace; basis unpacks them into tuples.
    """

    field: object
    ambient: int
    rows: tuple[int, ...]
    pivots: tuple[int, ...]

    def __post_init__(self):
        if self.rows and type(self.rows[0]) is not int:
            raise TypeError("Subspace rows are packed ints; build from vectors with from_span or from_rref")

    @staticmethod
    def from_span(field, ambient: int, vectors) -> "Subspace":
        pack = _layout(field).pack
        packed = []
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatch(f"vector length {len(v)} in ambient {ambient}")
            packed.append(pack(v))
        rows, pivots = _rref_rows(field, ambient, packed)
        return Subspace(field, ambient, tuple(rows), tuple(pivots))

    @staticmethod
    def from_rref(field, ambient: int, basis, pivots) -> "Subspace":
        """The subspace whose reduced row echelon basis (pivot columns given) is basis."""
        pack = _layout(field).pack
        return Subspace(field, ambient, tuple(pack(r) for r in basis), tuple(pivots))

    @staticmethod
    def zero(field, ambient: int) -> "Subspace":
        return Subspace(field, ambient, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        unpack = _layout(self.field).unpack
        return tuple(unpack(r, self.ambient) for r in self.rows)

    def matrix(self) -> Mat:
        return Mat(self.field, self.basis, self.ambient)


# the remedy named when two operands carry the same field in two contexts
_ONE_CONTEXT = "field_new and parse_field return one context per field"


def _check_same_space(a: Subspace, b: Subspace) -> None:
    if a.field is not b.field or a.ambient != b.ambient:
        if a.field.q == b.field.q and a.ambient == b.ambient:
            raise AmbientMismatch(f"subspaces over two different context objects for gf({a.field.q}); {_ONE_CONTEXT}")
        raise AmbientMismatch("subspaces live in different ambient spaces")


def row_space(m: Mat) -> Subspace:
    return Subspace.from_span(m.field, m.cols, m.rows)


def null_space(m: Mat) -> Subspace:
    """Right kernel {x : m @ x = 0} as a canonical subspace of GF(q)^cols.

    m is reduced with each pivot at its row's highest entry. The kernel
    vector of a free column f is then 1 at f and, at each pivot p above f,
    minus row p's entry at f: its lowest entry is the 1 at f, and the free
    columns are unit columns across these vectors, so in ascending f they
    already are the reduced row echelon basis.
    """
    L = _layout(m.field)
    reduced, pivots = _rref_rows(m.field, m.cols, _packed_rows(m), top=True)
    bound = set(pivots)
    free = [c for c in range(m.cols) if c not in bound]
    sym, mask, one = L.sym, L.mask, _vectors(m.field, 1)
    kernel = {f: 1 << (f * sym) for f in free}
    for row, p in zip(reduced, pivots):
        rest = row & ~(mask << (p * sym))
        while rest:
            c = ((rest & -rest).bit_length() - 1) // sym
            f = (rest >> (c * sym)) & mask
            rest ^= f << (c * sym)
            kernel[c] |= one.scale(f, -1) << (p * sym)
    return Subspace(m.field, m.cols, tuple(kernel[f] for f in free), tuple(free))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """The canonical sum; the smaller basis is inserted into the larger, and
    a summand that already spans the ambient space is returned as it is."""
    _check_same_space(a, b)
    if len(a.rows) < len(b.rows):
        a, b = b, a
    if not b.rows or len(a.rows) == a.ambient:
        return a
    rows, pivots = _rref_rows(a.field, a.ambient, b.rows, a.rows, a.pivots)
    return Subspace(a.field, a.ambient, tuple(rows), tuple(pivots))


def solve(m: Mat, rhs: tuple[int, ...]):
    """One solution x of m @ x = rhs, or None if inconsistent (free vars -> 0)."""
    if len(rhs) != m.nrows:
        raise DimensionMismatch("right-hand side length does not match row count")
    return _Combiner(m.field, m.nrows, _packed_rows(m.transpose())).solve(rhs)


class _Combiner:
    """Coefficients x with sum_r x_r * vectors[r] = y, for many y and fixed vectors.

    The package's one linear solver. Each packed length-n vectors[r] gets
    the unit vector e_(count-1-r) appended, so the tail lists the vectors in
    reverse, and the rows are reduced once. Reducing [y | 0] by them leaves
    [y - x G | -x reversed] with x G the part of y in the span of the
    vectors: its first n entries are zero exactly when y lies in that span.
    A relation among the vectors has its lowest tail entry at its last
    vector, so the reduced relations pivot there and x is 0 at every vector
    that depends on earlier ones: x is the free-variables-0 solution of the
    reduced echelon form of [vectors as columns | y], the one solve returns.
    """

    def __init__(self, field, n: int, vectors):
        self.field, self.n, self.count = field, n, len(vectors)
        L = _layout(field)
        self.low = (1 << (n * L.sym)) - 1
        top = n + self.count - 1
        packed = [v | 1 << ((top - r) * L.sym) for r, v in enumerate(vectors)]
        self.rows, self.pivots = _rref_rows(field, n + self.count, packed)

    def solve(self, y) -> tuple[int, ...] | None:
        """The solution for the length-n y, or None when y is outside the span."""
        if len(y) != self.n:
            raise DimensionMismatch(f"vector length {len(y)}, expected {self.n}")
        L = _layout(self.field)
        v = _residual(self.field, self.n + self.count, self.rows, self.pivots, L.pack(y))
        if v & self.low:
            return None
        tail = v >> (self.n * L.sym)
        if L.odd:
            tail = _vectors(self.field, self.count).scale(tail, -1)
        return L.unpack(tail, self.count)[::-1]


def _combinations(s: Subspace, rows):
    """Packed sums of coeffs[i] * rows[i] over coeffs in lexicographic order."""
    V = _vectors(s.field, s.ambient)
    out = [0]
    for row in reversed(rows):
        multiples = [V.scale(row, c) for c in range(1, s.field.q)]
        out = out + [V.add(m, x) for m in multiples for x in out]
    return out


def _points(s: Subspace) -> list[int]:
    """The points of s packed: its nonzero vectors whose first nonzero entry is 1.

    Such a vector has coefficient 1 on some basis row i and 0 on the rows
    before it, because its leading entry sits on pivot i; so the points are
    listed directly instead of normalising all q^dim vectors. They come in
    the order of their unpacked tuples: a later row i means more leading
    zeros, and for one i two points first differ at a later pivot, where
    their entries are their coefficients, which _combinations walks in
    lexicographic order.
    """
    V = _vectors(s.field, s.ambient)
    out = []
    for i in reversed(range(len(s.rows))):
        out += [V.add(s.rows[i], x) for x in _combinations(s, s.rows[i + 1 :])]
    return out


class _Generator:
    """An M x (n b) generator packed by rows, shared by the weight scan and the subset walk.

    Entry i of node j sits at bit j W + i sym, W = b sym + 1. Adding ones to
    a packed vector carries into the spare bit on top of each node, its
    guard, exactly when the node is nonzero; an entry is nonzero when one
    of its sym bits is."""

    def __init__(self, field, rows, b: int, n: int):
        L = self.layout = _layout(field)
        self.field, self.sym, self.width = field, L.sym, b * L.sym + 1
        # bit 0 of every node, then of every entry
        nodes = ((1 << (n * self.width)) - 1) // ((1 << self.width) - 1)
        self.ones, self.guards = nodes * ((1 << (b * L.sym)) - 1), nodes << (b * L.sym)
        self.slots = _Slots(L, nodes * (((1 << (b * L.sym)) - 1) // ((1 << L.sym) - 1)))
        self.rows = [L.pack(r, b, self.width) for r in rows]

    def flag(self, j: int, i: int | None) -> int:
        """The flag bit of symbol i of node j, or of node j (its guard) when i is None."""
        return 1 << (j * self.width + (self.width - 1 if i is None else i * self.sym))

    def unheld(self, rows) -> int:
        """The flags of the symbols and nodes at which some row is nonzero."""
        union = entries = reduce(or_, rows, 0)
        for shift in range(1, self.sym):
            entries |= union >> shift
        return (union + self.ones) & self.guards | entries & self.slots.low

    def eliminate(self, rows, j: int) -> list[int]:
        """The combinations of the rows that vanish on node j's entries: each
        entry nonzero in some row pivots out one row."""
        F, S, L = self.field, self.slots, self.layout
        for c in range(j * self.width, (j + 1) * self.width - 1, self.sym):
            for k, row in enumerate(rows):
                if row >> c & L.mask:
                    break
            else:
                continue
            if F.q == 2:
                rest = [r ^ row if r >> c & 1 else r for r in rows[k + 1 :]]
            else:
                row = S.scale(row, F.inv(L.entry(row >> c, 0)))
                rest, times = rows[k + 1 :], {}  # times[f] = -f * row
                for t, r in enumerate(rest):
                    if r >> c & L.mask:
                        f = L.entry(r >> c, 0)
                        rest[t] = S.add(r, times.get(f) or times.setdefault(f, S.scale(row, -f)))
            rows = rows[:k] + rest
        return rows


class _Quotients:
    """Rows reduced modulo the sum of a prefix's column spaces.

    The reductions of the prefix asked for last stay on a stack, so the next
    prefix costs one gen.eliminate per element past their common start."""

    def __init__(self, gen: _Generator, rows):
        self.gen, self.stack, self.prefix = gen, [rows], ()

    def __call__(self, prefix) -> list[int]:
        stack, prev = self.stack, self.prefix
        k = 0
        while k < len(prev) and k < len(prefix) and prev[k] == prefix[k]:
            k += 1
        del stack[k + 1 :]
        for m in prefix[k:]:
            stack.append(self.gen.eliminate(stack[-1], m))
        self.prefix = prefix
        return stack[-1]


def _subset_quotients(gen: _Generator, columns, size: int, leaves=None):
    """Every size-element subset of the ascending columns in lex order, with
    the generator reduced modulo the sum S of the subset's column spaces: a
    basis of the rows y G with y in S^perp, M - dim S of them for G of rank
    M, so a generator column lies in S exactly when every reduced row is zero
    at it (gen.unheld). The reduced rows of the subset's prefix come from a
    _Quotients stack, so each subset costs one gen.eliminate more. leaves(prefix),
    when given, maps a prefix to the node guard flags of the last elements
    worth trying; the others are skipped, and a prefix with none is not reduced.
    """
    modulo = _Quotients(gen, gen.rows)
    allowed = sum(1 << m * gen.width for m in columns) << gen.width - 1  # their node flags
    for prefix in combinations(columns[:-1], size - 1):
        above = (prefix[-1] + 1) * gen.width if prefix else 0
        todo = allowed >> above << above
        if leaves is not None:
            todo &= leaves(prefix)
            if not todo:
                continue
        rows = modulo(prefix)
        while todo:
            m = (todo & -todo).bit_length() // gen.width - 1
            todo &= todo - 1
            yield prefix + (m,), gen.eliminate(rows, m)


# --- matrix text format -----------------------------------------------------
# Header line "q rows cols", then one line of element encodings per row.


def format_matrix(m: Mat) -> str:
    lines = [f"{m.field.q} {m.nrows} {m.cols}"]
    for r in m.rows:
        lines.append(" ".join(str(x) for x in r))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, field=None) -> Mat:
    """Parse the matrix text format; field inferred from the header unless given.

    An error in a row names the row (1-based) and, for an entry that is not
    an integer or lies outside the field, the entry.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    field, rows, cols = _matrix_rows(lines, field)
    return Mat(field, rows, cols)


# the byte of a digit character to the digit's value
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _matrix_rows(lines, field=None):
    """The field, rows and column count of a matrix in the text format.

    lines are its nonempty lines, without trailing whitespace: the reader
    behind parse_matrix and parse_bundle. Every row is read before any entry
    is range-checked. A row of single digits, one space apart, is decoded
    whole; any other row is split into tokens.
    """
    if not lines:
        raise DimensionMismatch("empty matrix text")
    try:
        q, nrows, cols = map(int, lines[0].split())
    except ValueError:
        raise DimensionMismatch(f"matrix header must be 'q rows cols', got {lines[0].strip()!r}") from None
    if field is None:
        field = field_from_order(q)
    elif field.q != q:
        raise AmbientMismatch(f"matrix is over gf of order {q}, expected order {field.q}")
    if len(lines) != 1 + nrows:
        raise DimensionMismatch(f"expected {nrows} rows, got {len(lines) - 1}")
    rows, in_field = [], True
    width, digits = 2 * cols - 1, b"0123456789"[:q]
    for i, ln in enumerate(lines[1:], 1):
        if len(ln) == width and ln.isascii():
            text = ln.encode()
            entries = text[::2]
            if text[1::2].count(b" ") == cols - 1 and entries.isdigit():
                rows.append(tuple(entries.translate(_DIGIT_VALUES)))
                in_field = in_field and not entries.translate(None, digits)
                continue
        parts = ln.split()
        if len(parts) != cols:
            raise DimensionMismatch(f"row {i}: expected {cols} entries, got {len(parts)}")
        try:
            if not _plain(ln) and not all(map(_plain, parts)):
                raise ValueError
            rows.append(tuple(map(int, parts)))
        except ValueError:
            bad = next(x for x in parts if not _is_entry(x))
            raise OutOfRange(f"row {i}: entry {bad!r} is not an integer") from None
        in_field = in_field and 0 <= min(rows[-1]) and max(rows[-1]) < q
    if not in_field:
        i, bad = next((i, x) for i, r in enumerate(rows, 1) for x in r if not 0 <= x < q)
        raise OutOfRange(f"row {i}: entry {bad} outside field of order {q}")
    return field, tuple(rows), cols


def _plain(text: str) -> bool:
    """Whether text holds none of what int() reads besides -?[0-9]+: a '+',
    a '_' digit separator or a non-ASCII digit. Each token of a plain line
    that int() reads is an entry."""
    return text.isascii() and "+" not in text and "_" not in text


def _is_entry(token: str) -> bool:
    """Whether token is an entry, -?[0-9]+, that int() reads (it refuses over 4,300 digits)."""
    if not _plain(token):
        return False
    try:
        int(token)
    except ValueError:
        return False
    return True
