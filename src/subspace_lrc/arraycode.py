"""Array codes built from collections of subspaces, and their exact analysis.

A code instance is a b x n array code of dimension M over GF(q): messages
are vectors of GF(q)^M, codewords are b x n arrays, and the weight of a
codeword is the number of nonzero columns. Thick column j of the flattened
M x bn generator holds the transposed canonical basis of the j-th
associated subspace (zero-padded to width b), so the column space of thick
column j is that subspace by construction.

Distance and weight statistics come from an exact scan of all q^M messages
driven by a base-q Gray sequence: each step updates one generator-row
coefficient, the scan supports arbitrary index ranges with random-access
starts, and range results merge by histogram addition, so partitioning
never changes the outcome. The scan is packed: the running codeword is one
Python int holding every base-p digit of every symbol in its own bit slot
(odd p adds a guard bit per slot), each thick column carries one spare bit
that a single addition sets exactly when the column is nonzero, and a Gray
step costs a few whole-int operations and one bit_count, with no field
operation (see _scan_range).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .errors import (
    AmbientMismatch,
    BadParams,
    DimensionMismatch,
    DimensionTooLarge,
    DuplicateBlock,
    Inconsistent,
    MixedDimensions,
    NotDivisible,
    OutOfRange,
    TooLarge,
)
from .designs import build_spread, build_std, enumerate_grassmannian, point_incidence
from .gf import parse_field
from .limits import guard
from .linalg import (
    _ONE_CONTEXT,
    Mat,
    Subspace,
    _Generator,
    _layout,
    _matrix_rows,
    _rref_rows,
    _subset_quotients,
    format_matrix,
    null_space,
    subspace_sum,
    vec_mat,
)


@dataclass(frozen=True)
class ArrayCode:
    """Immutable array code: generator, layout and associated subspaces."""

    field: object
    b: int
    n: int
    M: int
    generator: Mat
    subspaces: tuple[Subspace, ...]
    provenance: str

    def column_vector(self, i: int, j: int) -> tuple[int, ...]:
        """Generator column for symbol i of node j, as a length-M vector."""
        if not 0 <= i < self.b:
            raise OutOfRange(f"symbol row {i} outside 0..{self.b - 1}")
        if not 0 <= j < self.n:
            raise OutOfRange(f"column {j} outside 0..{self.n - 1}")
        return self.generator.column(j * self.b + i)

    @cached_property
    def _repair_plans(self) -> dict:
        """Erased column -> repair plan, filled by locality.repair on first use."""
        return {}

    @cached_property
    def _packed_generator(self) -> _Generator:
        """The generator packed by rows for the subset walk, built on first use."""
        return _Generator(self.field, self.generator.rows, self.b, self.n)


def code_from_subspaces(field, subspaces, b: int, M: int, provenance: str) -> ArrayCode:
    """Assemble the array code whose thick columns span the given subspaces."""
    subspaces = tuple(subspaces)
    if not subspaces:
        raise BadParams("need at least one associated subspace")
    if M < 1:
        raise BadParams(f"need M >= 1, got M={M}")
    for s in subspaces:
        if s.field is not field or s.ambient != M:
            where = f"subspace of gf({s.field.q})^{s.ambient} in a code over gf({field.q})^{M}"
            if s.field.q == field.q and s.ambient == M:
                where = f"subspace and code over two different context objects for gf({field.q}); {_ONE_CONTEXT}"
            raise AmbientMismatch(where)
        if s.dim > b:
            raise DimensionTooLarge(f"subspace dimension {s.dim} exceeds column width b={b}")
    columns = [c for s in subspaces for c in s.basis + ((0,) * M,) * (b - s.dim)]
    generator = Mat(field, tuple(zip(*columns)), b * len(subspaces))
    spanned = reduce(subspace_sum, subspaces).dim
    if spanned != M:
        raise BadParams(f"associated subspaces span a {spanned}-dim space, code needs the full {M}")
    return ArrayCode(field, b, len(subspaces), M, generator, subspaces, provenance)


# --- constructions ------------------------------------------------------------


def construction_all_subspaces(field, M: int, b: int, *, limit: int | None = None) -> ArrayCode:
    """One thick column per b-dim subspace of GF(q)^M."""
    if not 1 <= b <= M:
        raise OutOfRange(f"need 1 <= b <= M, got b={b}, M={M}")
    subs = enumerate_grassmannian(field, M, b, limit=limit)
    return code_from_subspaces(
        field, subs, b, M, f"all-subspaces q={field.q} M={M} b={b}"
    )


def construction_spread(field, M: int, b: int, method: str = "gabidulin-echelon") -> ArrayCode:
    """One thick column per block of a b-spread of GF(q)^M."""
    return _spread_code(build_spread(field, M, b, method))


def _spread_code(design) -> ArrayCode:
    """The code of a built spread, one thick column per block."""
    field, M, b = design.field, design.M, design.b
    tag = f"spread q={field.q} M={M} b={b} method={design.method}"
    return code_from_subspaces(field, design.blocks, b, M, tag)


def construction_from_blocks(field, blocks) -> ArrayCode:
    """Array code from a user-supplied block set (validated, not trusted)."""
    blocks = tuple(blocks)
    if not blocks:
        raise BadParams("empty block set")
    dims = {blk.dim for blk in blocks}
    if len(dims) != 1:
        raise MixedDimensions(f"blocks mix dimensions {sorted(dims)}")
    if len(set(blocks)) != len(blocks):
        seen = set()
        for i, blk in enumerate(blocks):
            if blk in seen:
                raise DuplicateBlock(f"block {i} repeats an earlier block")
            seen.add(blk)
    b = dims.pop()
    M = blocks[0].ambient
    return code_from_subspaces(
        field, blocks, b, M, f"blocks q={field.q} M={M} b={b} count={len(blocks)}"
    )


def construction_std(
    field, t: int, b: int, M: int, scope: str, class_index: int = 0
) -> ArrayCode:
    """Array code from a subspace transversal design on GF(q)^M, M = b + m.

    scope "par" uses the blocks of one parallel class (n = q^(M-b));
    scope "full" uses every block (n = q^((M-b) t)).
    """
    return _std_code(_std_design(field, t, b, M), scope, class_index)


def _std_design(field, t: int, b: int, M: int):
    """The transversal design of the std codes on GF(q)^M, parameters checked in t, b and M."""
    if not 1 <= t <= b <= M - b:
        raise BadParams(f"need 1 <= t <= b <= M - b, got t={t}, b={b}, M={M}")
    return build_std(field, t, b, M - b)


def _std_code(design, scope: str, class_index: int = 0) -> ArrayCode:
    """The code of a built transversal design: one parallel class ("par") or every block ("full")."""
    field, t, b, M = design.field, design.t, design.b, design.ambient
    if scope == "par":
        if not 0 <= class_index < len(design.classes):
            raise OutOfRange(f"class index {class_index} outside 0..{len(design.classes) - 1}")
        blocks = [design.blocks[i] for i in design.classes[class_index]]
        tag = f"std-par q={field.q} t={t} b={b} M={M} class={class_index}"
    elif scope == "full":
        blocks = list(design.blocks)
        tag = f"std-full q={field.q} t={t} b={b} M={M}"
    else:
        raise BadParams(f"scope must be 'par' or 'full', got {scope!r}")
    return code_from_subspaces(field, blocks, b, M, tag)


# --- encoding and weights -----------------------------------------------------


def encode(code: ArrayCode, message) -> Mat:
    """Codeword array for a message vector of length M."""
    message = tuple(message)
    if len(message) != code.M:
        raise DimensionMismatch(f"message length {len(message)}, expected {code.M}")
    flat = vec_mat(message, code.generator)
    rows = tuple(
        tuple(flat[j * code.b + i] for j in range(code.n)) for i in range(code.b)
    )
    return Mat(code.field, rows, code.n)


def weight(codeword: Mat) -> int:
    """Number of nonzero columns of a codeword array."""
    return sum(1 for j in range(codeword.cols) if any(r[j] for r in codeword.rows))


def _gray_digits(s: int, q: int, M: int) -> list[int]:
    d = []
    for _ in range(M + 1):
        d.append(s % q)
        s //= q
    return [(d[i] - d[i + 1]) % q for i in range(M)]


def _scan_range(G: _Generator, lo: int, hi: int):
    """Weight histogram of the messages with packed generator G and Gray indices in [lo, hi).

    Gray index s maps to the message whose i-th coordinate is the i-th
    modular Gray digit of s; step s flips digit v_q(s) up by one, so the
    running codeword needs one scaled row addition per step. Returns the
    histogram in a 1-tuple, the shape the benchmark's span tracer reads.

    The running codeword and every scaled generator row are single ints
    in the thick-column layout of linalg._Generator: each symbol takes k
    slots of s bits (one bit for p = 2, a guard bit on top for odd p), and a
    row addition is one _Slots.add. Thick column j starts at bit
    j * (b k s + 1): the spare bit above its data receives the carry of
    data + (2^(bks) - 1), which is set exactly when the column is nonzero,
    so the weight is one bit_count. Entries are range-checked once, while
    the rows are packed; the scaled rows are built by packed arithmetic
    before the walk, and the Gray steps call no field operation.
    """
    field, n = G.field, G.guards.bit_count()  # one guard per node
    q, M = field.q, len(G.rows)
    S, packed, ones, guards = G.slots, G.rows, G.ones, G.guards
    odd, carry, high, shift, p = S.odd, S.carry, S.high, S.shift, S.p
    # the Gray step from digit g to g + 1 (mod q) adds step[g] times the row;
    # adds[g][r] is that multiple of row r, built once per distinct step value
    step = [field.sub((g + 1) % q, g) for g in range(q)]
    rows_of = {c: [S.scale(row, c) for row in packed] for c in set(step)}
    adds = [rows_of[c] for c in step]
    digits = _gray_digits(lo, q, M)
    flat = 0
    for r, g in enumerate(digits):
        if g:
            flat = S.add(flat, S.scale(packed[r], g))
    counts = [0] * (n + 1)
    counts[((flat + ones) & guards).bit_count()] += 1
    for index in range(lo + 1, hi):
        r = 0
        x = index
        while x % q == 0:
            x //= q
            r += 1
        g = digits[r]
        digits[r] = g + 1 if g + 1 < q else 0
        row = adds[g][r]
        # S.add inlined: this loop runs q^M times
        if odd:
            t = flat + row
            flat = t - (((t + carry) & high) >> shift) * p
        else:
            flat ^= row
        counts[((flat + ones) & guards).bit_count()] += 1
    return ({w: c for w, c in enumerate(counts) if c},)


def weight_distribution(
    code: ArrayCode, *, limit: int | None = None, jobs: int = 1
) -> dict[int, int]:
    """Exact weight histogram over all q^M codewords.

    jobs > 1 splits the Gray index space into that many independently
    scanned ranges (merged by addition; the result is partition-independent)
    and fans them over a process pool, each worker scanning the code's
    packed generator.
    """
    total = code.field.q**code.M
    guard(total, f"scanning {total} codewords", limit)
    chunks = max(jobs, 1)
    bounds = [total * i // chunks for i in range(chunks + 1)]
    ranges = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    tasks = ([code._packed_generator] * len(ranges), *zip(*ranges))
    if jobs > 1 and len(ranges) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_scan_range, *tasks))
    else:
        parts = list(map(_scan_range, *tasks))
    merged: dict[int, int] = {}
    for (part,) in parts:
        for w, c in part.items():
            merged[w] = merged.get(w, 0) + c
    return dict(sorted(merged.items()))


def min_distance(code: ArrayCode, *, limit: int | None = None) -> int:
    """Exact minimum weight over nonzero codewords: the least nonzero weight scanned."""
    return min(w for w in weight_distribution(code, limit=limit) if w)


# --- duality, MDS, perfectness -------------------------------------------------


def dual(code: ArrayCode) -> ArrayCode:
    """The array code generated by the kernel of the generator, same layout."""
    kernel = null_space(code.generator)
    if kernel.dim == 0:
        raise BadParams("dual code is trivial (generator has full column count)")
    gen = Mat(code.field, kernel.basis, code.b * code.n)
    return ArrayCode(
        code.field,
        code.b,
        code.n,
        kernel.dim,
        gen,
        _thick_column_spans(gen, code.b),
        f"dual({code.provenance})",
    )


def _thick_column_spans(gen: Mat, b: int) -> tuple[Subspace, ...]:
    """The span of each thick column (b consecutive generator columns)."""
    flat = gen.transpose().rows
    return tuple(
        Subspace.from_span(gen.field, gen.nrows, flat[j : j + b]) for j in range(0, gen.cols, b)
    )


def dual_distance_by_supports(code: ArrayCode) -> int:
    """Minimum weight of the dual code, via thick-column support search.

    A dual codeword of weight w exists exactly when some w thick columns of
    the primal generator carry linearly dependent flat columns, that is
    when their sum S has dimension below w*b. The blocks settle w <= 2: it
    is 1 when some block has dim < b, else 2 when some projective point
    lies in two blocks. Larger supports are walked by size, with the
    generator reduced modulo S (M - dim S rows), up to the first such sum;
    any support of size > M/b is dependent, which bounds the depth.
    """
    b, n, M = code.b, code.n, code.M
    if any(s.dim < b for s in code.subspaces):
        return 1
    table = _block_points(code)
    if table is not None and any(len(h) > 1 for h in table.values()):
        return 2
    start = 2 if table is None else 3
    gen = code._packed_generator
    for w in range(start, n + 1):
        if w * b > M:
            # more flat columns than the ambient dimension: always dependent
            return w
        if any(len(rows) > M - w * b for _, rows in _subset_quotients(gen, range(n), w)):
            return w
    raise TooLarge(f"no dual codeword of weight <= {n} found")


def _block_points(code: ArrayCode) -> dict[int, list[int]] | None:
    """point_incidence of the code's blocks, or None when listing the points
    of every block is over the default enumeration limit."""
    try:
        guard(code.n * (code.field.q**code.b - 1) // (code.field.q - 1), "listing the points of every block")
    except TooLarge:
        return None
    return point_incidence(code.subspaces)


def is_mds(code: ArrayCode, *, distance: int | None = None, limit: int | None = None) -> bool:
    """Whether d = n - M/b + 1; requires b | M."""
    if code.M % code.b:
        raise NotDivisible(f"MDS test needs b | M, got b={code.b}, M={code.M}")
    d = min_distance(code, limit=limit) if distance is None else distance
    return d == code.n - code.M // code.b + 1


@dataclass(frozen=True)
class PerfectnessResult:
    phi1: int
    covered: int
    space: int
    ratio: Fraction
    is_perfect: bool


def _covering(q: int, b: int, n: int, dim: int) -> PerfectnessResult:
    phi1 = 1 + n * (q**b - 1)
    covered = q**dim * phi1
    space = q ** (b * n)
    ratio = Fraction(covered, space)
    return PerfectnessResult(phi1, covered, space, ratio, ratio == 1)


def perfectness(code: ArrayCode) -> PerfectnessResult:
    """Exact radius-1 ball-covering ratio |C| * phi1 / q^(bn).

    phi1 counts the arrays within column distance 1 of a fixed codeword:
    1 + n (q^b - 1).
    """
    return _covering(code.field.q, code.b, code.n, code.M)


def dual_perfectness(code: ArrayCode) -> PerfectnessResult:
    """perfectness(dual(code)), read off the dual's dimension.

    The generator has rank M (code_from_subspaces and parse_bundle reject
    anything else), so its kernel, the dual's message space, has dimension
    bn - M; the ratio depends on nothing else, so the dual is not built.
    """
    return _covering(code.field.q, code.b, code.n, code.b * code.n - code.M)


# --- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class CodeReport:
    parameters: dict
    full_column_rank: bool
    distance: int | None
    weight_distribution: dict[int, int] | None
    mds: bool | None
    perfect: bool
    phi1: int
    ratio_num: int
    ratio_den: int
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        wd = self.weight_distribution
        return {
            **vars(self),
            "weight_distribution": None if wd is None else {str(k): v for k, v in sorted(wd.items())},
            "notes": list(self.notes),
        }


def analyze_code(
    code: ArrayCode,
    *,
    with_distance: bool = True,
    with_weights: bool = True,
    limit: int | None = None,
    jobs: int = 1,
) -> CodeReport:
    """Assemble the per-code report; oversize scans degrade to notes, never crash.
    The histogram and d come from one scan, and d is reported whenever it ran."""
    notes: list[str] = []
    dist: int | None = None
    wd: dict[int, int] | None = None
    if with_weights or with_distance:
        try:
            hist = weight_distribution(code, limit=limit, jobs=jobs)
            dist = min((w for w in hist if w > 0), default=None)
            wd = hist if with_weights else None
        except TooLarge as exc:
            if with_weights:
                notes.append(f"weight distribution skipped: {exc}")
            if with_distance:
                notes.append(f"distance skipped: {exc}")
    mds: bool | None = None
    if dist is not None and code.M % code.b == 0:
        mds = is_mds(code, distance=dist)
    elif code.M % code.b:
        notes.append(f"MDS undefined: b={code.b} does not divide M={code.M}")
    perf = perfectness(code)
    return CodeReport(
        parameters={
            "q": code.field.q,
            "b": code.b,
            "n": code.n,
            "M": code.M,
            "provenance": code.provenance,
        },
        full_column_rank=all(s.dim == code.b for s in code.subspaces),
        distance=dist,
        weight_distribution=wd,
        mds=mds,
        perfect=perf.is_perfect,
        phi1=perf.phi1,
        ratio_num=perf.ratio.numerator,
        ratio_den=perf.ratio.denominator,
        notes=tuple(notes),
    )


# --- bundle format --------------------------------------------------------------


def format_bundle(code: ArrayCode) -> str:
    lines = [
        "bundle array-code",
        f"field {code.field.descriptor()}",
        f"b {code.b}",
        f"n {code.n}",
        f"M {code.M}",
        f"provenance {code.provenance}",
        "generator",
        format_matrix(code.generator).rstrip("\n"),
        f"subspaces {code.n}",
    ]
    for s in code.subspaces:
        lines.append(format_matrix(s.matrix()).rstrip("\n"))
    return "\n".join(lines) + "\n"


def write_bundle(code: ArrayCode, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_bundle(code))


_HEADER = ("field", "b", "n", "M", "provenance")


def parse_bundle(text: str) -> ArrayCode:
    """Parse and validate a code bundle; raises Inconsistent on bad data.

    The header lines between the first line and "generator" are read by
    key, in any order; an unknown, repeated, missing or malformed header
    is named in the error. The matrices are read off the bundle's lines in
    one pass by the matrix reader (linalg._matrix_rows), and each declared
    subspace is packed and reduced straight from its rows.
    """
    lines = [ln for ln in map(str.rstrip, text.splitlines()) if ln]
    if not lines or lines[0] != "bundle array-code":
        raise Inconsistent(f"not a code bundle: first line {lines[0] if lines else ''!r}")
    if "generator" not in lines:
        raise Inconsistent("bundle missing the generator section")
    start = lines.index("generator")
    header: dict[str, str] = {}
    for ln in lines[1:start]:
        key, *value = ln.split(None, 1)
        if key not in _HEADER or key in header:
            raise Inconsistent(f"unexpected bundle header line {ln!r}")
        header[key] = value[0] if value else ""
    for key in _HEADER:
        if key not in header:
            raise Inconsistent(f"bundle header {key!r} is missing")
    try:
        field = parse_field(header["field"])
    except ValueError as exc:
        raise Inconsistent(f"bundle header 'field': {exc}") from exc
    b, n, M = (_header_int(header, key) for key in ("b", "n", "M"))
    if b < 1:
        raise Inconsistent(f"bundle header 'b' must be at least 1, got {b}")
    if M < 1:
        raise Inconsistent(f"bundle header 'M' must be at least 1, got {M}")
    provenance = header["provenance"]

    def matrix(pos: int, what: str):
        """The rows and column count of the matrix whose header is lines[pos], and the line after it."""
        head = lines[pos].split() if pos < len(lines) else []
        try:
            end = pos + 1 + (int(head[1]) if len(head) == 3 and head[1].isdecimal() else 0)
            _, rows, cols = _matrix_rows(lines[pos:end], field)
        except ValueError as exc:
            raise Inconsistent(f"malformed code bundle: {what}: {exc}") from exc
        return rows, cols, end

    rows, cols, pos = matrix(start + 1, "generator")
    gen = Mat(field, rows, cols)
    section = lines[pos].split() if pos < len(lines) else []
    if not section or section[0] != "subspaces":
        raise Inconsistent("bundle missing the subspaces section")
    if len(section) != 2 or not section[1].isdecimal():
        raise Inconsistent(f"malformed code bundle: subspaces line {lines[pos]!r}")
    count = int(section[1])
    declared = []
    pos += 1
    for k in range(count):
        if pos >= len(lines):
            raise Inconsistent(f"bundle declares {count} subspaces, holds {len(declared)}")
        rows, cols, pos = matrix(pos, f"subspace {k + 1} of {count}")
        declared.append((rows, cols))

    if gen.nrows != M or gen.cols != b * n or count != n:
        raise Inconsistent(
            f"bundle shapes disagree: generator {gen.nrows}x{gen.cols}, declared M={M}, b={b}, n={n}"
        )
    if pos < len(lines):
        raise Inconsistent(f"bundle declares {count} subspaces, then holds line {lines[pos]!r}")
    # A thick column laid out as format_bundle writes it (the declared rows,
    # then zero columns) spans exactly the declared subspace, so each subspace
    # is reduced once; only a column in another layout is reduced on its own.
    pack = _layout(field).pack
    flat = list(zip(*gen.rows))
    zero = (0,) * M
    subs, spans = [], []
    for j, (rows, cols) in enumerate(declared):
        basis, pivots = _rref_rows(field, cols, [pack(r) for r in rows])
        subs.append(Subspace(field, cols, tuple(basis), tuple(pivots)))
        column = tuple(flat[j * b : (j + 1) * b])
        written = cols == M and column == rows + (zero,) * (b - len(rows))
        spans.append(subs[-1] if written else Subspace.from_span(field, M, column))
    # the rank is the dimension of the sum of the column spans, as in code_from_subspaces
    spanned = reduce(subspace_sum, spans, Subspace.zero(field, M)).dim
    if spanned != M:
        raise Inconsistent(f"generator rank {spanned} differs from declared dimension {M}")
    for j, (span, s) in enumerate(zip(spans, subs)):
        if span != s:
            raise Inconsistent(f"thick column {j + 1} does not span its declared subspace")
    return ArrayCode(field, b, n, M, gen, tuple(spans), provenance)


def _header_int(header: dict[str, str], key: str) -> int:
    try:
        return int(header[key])
    except ValueError:
        raise Inconsistent(f"bundle header {key!r} is not an integer: {header[key]!r}") from None


def read_bundle(path: str) -> ArrayCode:
    with open(path, encoding="ascii") as fh:
        return parse_bundle(fh.read())
