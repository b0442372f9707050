"""Recovery sets, locality, availability and single-column repair.

A set of helper columns recovers a whole node when the node's associated
subspace lies inside the sum of the helpers' subspaces, and recovers one
symbol when that symbol's generator column lies inside the sum. Locality is
the worst-case minimum helper count over targets; availability counts how
many pairwise disjoint helper sets (each within the locality bound) a
single target admits.

All searches are exact and deterministic: subsets are tried in size order,
then lexicographically, and the first valid set wins. While one node j is
the only pending target, a prefix whose sum S misses b dimensions of U_j
tries as its last helper only the nodes inside S + U_j. Availability packs the
minimal valid helper sets: exactly when the pool is within the packing cap or
pairwise disjoint, else as a flagged greedy lower bound. At r <= 2 within the
cap a pool's value is its singleton count plus a maximum matching; the family
shown for a group comes from branch-and-bound on the group's first worst
pool only, stopped once it reaches that optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from .arraycode import ArrayCode
from .designs import enumerate_grassmannian, point_incidence
from .errors import BadParams, Inconsistent, NoRecovery, OutOfRange
from .limits import DEFAULT_PACKING_CAP, guard
from .linalg import (
    Mat,
    _Combiner,
    _layout,
    _points,
    _residual,
    _rref_rows,
    _subset_quotients,
    vec_dot,
)


@dataclass(frozen=True)
class RecoverySet:
    """Helper columns plus the functionals that rebuild the target from them.

    coefficients[i][k] multiplies the k-th helper symbol (flat order: helper
    column index m first, then symbol row) when rebuilding target symbol i;
    node targets carry one functional per symbol row, symbol targets one.
    A witness of the search computes them when they are first read.
    """

    kind: str
    column: int
    row: int | None
    columns: tuple[int, ...]
    coefficients: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.columns)

    # The search's witnesses are made by _unsolved, which fills __dict__
    # without __init__, and __getattr__ solves their coefficients on first
    # read; so the class must stay a dataclass without slots or __post_init__.
    @classmethod
    def _unsolved(cls, code: ArrayCode, column: int, row: int | None, columns) -> RecoverySet:
        """The witness of (column, row) by columns; it holds code until its coefficients are read."""
        kind, rows = ("node", range(code.b)) if row is None else ("symbol", (row,))
        w = object.__new__(cls)
        w.__dict__.update(kind=kind, column=column, row=row, columns=columns, _solve=(code, columns, column, rows))
        return w

    def __getattr__(self, name):
        # reached only while a witness made by _unsolved has no coefficients yet
        solve = self.__dict__.get("_solve") if name == "coefficients" else None
        if solve is None:
            raise AttributeError(name)
        object.__setattr__(self, name, _functionals(*solve))
        del self.__dict__["_solve"]
        return self.coefficients


def _functionals(code: ArrayCode, columns, column: int, rows) -> tuple[tuple[int, ...], ...]:
    """For each symbol row of column, the x with (helper generator columns) x
    = (the symbol's generator column) and free variables 0, as solve gives:
    the helper part of one reduction, targets appended, is the reduced
    echelon form of the helper columns alone."""
    gen, L = code._packed_generator, _layout(code.field)
    bits = [m * gen.width + i * L.sym for m in columns for i in range(code.b)]
    bits += [column * gen.width + i * L.sym for i in rows]
    k = len(bits) - len(rows)
    packed = [sum((g >> c & L.mask) << (x * L.sym) for x, c in enumerate(bits)) for g in gen.rows]
    basis, pivots = _rref_rows(code.field, len(bits), packed)
    assert not pivots or pivots[-1] < k, "recovery set accepted but no functional exists"
    at = dict(zip(pivots, basis))
    return tuple(tuple(L.entry(at[c], t) if c in at else 0 for c in range(k)) for t in range(k, len(bits)))


def _check_shape(code: ArrayCode, array: Mat) -> None:
    if array.nrows != code.b or array.cols != code.n:
        raise BadParams(f"array is {array.nrows}x{array.cols}, code is {code.b}x{code.n}")


def evaluate_recovery(code: ArrayCode, rset: RecoverySet, array: Mat) -> tuple[int, ...]:
    """Rebuild the target symbols from the helper entries of a b x n codeword array."""
    _check_shape(code, array)
    for m in rset.columns:
        if not 0 <= m < code.n:
            raise OutOfRange(f"column {m} outside 0..{code.n - 1}")
    vals = [array.rows[i][m] for m in rset.columns for i in range(code.b)]
    return tuple(vec_dot(code.field, coeff, vals) for coeff in rset.coefficients)


# --- recovery-set engine ----------------------------------------------------------
# A target is (column, row, ...): row None asks for the whole node, otherwise
# for one symbol. Its helper sets never contain its own column. The walk
# hands over the generator reduced modulo each helper sum, and one packed
# test tells every target the sum holds: its flag is clear in gen.unheld.


def _held(gen, subset, rows, wanted: int):
    """Each flag in wanted, outside the subset's own columns, that the sum holds."""
    for m in subset:
        wanted &= ~(((1 << gen.width) - 1) << m * gen.width)
    held = wanted & ~gen.unheld(rows)
    while held:
        yield held & -held
        held &= held - 1


def _witnesses(code: ArrayCode, targets) -> list[RecoverySet]:
    """First helper set in (size, lex) order whose sum holds each distinct target.

    One walk per size serves every pending target, and zero targets need no
    helpers. NoRecovery names the first target with no set of size <= n - 1;
    callers list nodes before symbols, and a node's set recovers each of its
    symbols, so that target is a node.
    """
    gen = code._packed_generator
    nonzero = gen.unheld(gen.rows)
    found: list = [None if gen.flag(*t) & nonzero else () for t in targets]
    waiting = {gen.flag(*targets[k]): k for k, f in enumerate(found) if f is None}
    assert len(waiting) == found.count(None), "targets must be distinct"
    pending = sum(waiting)
    columns = [m for m in range(code.n) if any(t[0] != m for t in targets)]

    def leaves(rows):
        # one node j pending, b dimensions outside the prefix sum S: a leaf m
        # with U_j in S + U_m has dim(S + U_m) <= dim(S + U_j), so U_m lies in S + U_j
        k = waiting.get(pending)
        if k is not None and targets[k][1] is None:
            rest = gen.eliminate(rows, targets[k][0])
            if len(rows) - len(rest) == code.b:
                return gen.guards & ~gen.unheld(rest)
        return gen.guards

    for size in range(1, code.n):
        if not pending:
            break
        for subset, rows in _subset_quotients(gen, columns, size, leaves):
            for bit in _held(gen, subset, rows, pending):
                found[waiting[bit]] = subset
                pending ^= bit
            if not pending:
                break
    out = []
    for (column, row), subset in zip(targets, found):
        if subset is None:
            raise NoRecovery(f"node {column + 1} has no recovery set of size <= {code.n - 1}")
        # verify and analyze print no coefficients: they are solved on first read
        out.append(RecoverySet._unsolved(code, column, row, subset))
    return out


def _candidate_count(n: int, r: int) -> int:
    """Helper sets of size 1..r among the n - 1 columns other than a target."""
    return sum(comb(n - 1, s) for s in range(1, r + 1))


def _minimal_recovery_sets(code: ArrayCode, targets, *, limit=None) -> list[list[tuple]]:
    """Each target's minimal valid helper sets, in (size, lex) order.

    targets are distinct (column, row, r) triples; a helper set is valid when
    its size is at most r and its sum holds the target. Sums only grow, so a
    valid set is minimal unless one of its subsets one element smaller was
    valid too.
    """
    for r in dict.fromkeys(r for _, _, r in targets):
        total = _candidate_count(code.n, r)
        guard(total, f"enumerating {total} candidate helper sets", limit)
    gen = code._packed_generator
    pools: list[list[tuple]] = [[] for _ in targets]
    valid: list[set] = [set() for _ in targets]  # valid sets one size smaller
    for size in range(1, max((r for _, _, r in targets), default=0) + 1):
        active = [k for k, t in enumerate(targets) if t[2] >= size]
        waiting = {gen.flag(*targets[k][:2]): k for k in active}
        assert len(waiting) == len(active), "targets must be distinct"
        wanted = sum(waiting)
        grown: list[set] = [set() for _ in targets]
        columns = [m for m in range(code.n) if any(targets[k][0] != m for k in active)]
        for subset, rows in _subset_quotients(gen, columns, size):
            faces = [subset[:i] + subset[i + 1 :] for i in range(size)]
            for bit in _held(gen, subset, rows, wanted):
                k = waiting[bit]
                if not (valid[k] and any(f in valid[k] for f in faces)):
                    pools[k].append(subset)
                if size < targets[k][2]:
                    grown[k].add(subset)
        valid = grown
    return pools


def min_node_recovery(code: ArrayCode, column: int) -> RecoverySet:
    """Smallest helper set whose subspace sum contains the node's subspace."""
    code.column_vector(0, column)  # OutOfRange for a bad column
    return _witnesses(code, [(column, None)])[0]


@dataclass(frozen=True)
class LocalityProfile:
    """Code-level locality/availability with the witnesses behind each number.

    t values are None when availability was not requested; availability
    results keep their exact-vs-bound flag.
    """

    node_locality: int
    symbol_locality: int
    node_witnesses: tuple[RecoverySet, ...]
    symbol_witnesses: tuple[tuple[RecoverySet, ...], ...]  # [row][column]
    node_t: "AvailabilityResult | None" = None
    symbol_t: "AvailabilityResult | None" = None


def locality_profile(
    code: ArrayCode,
    *,
    with_availability: bool = False,
    exact_cap: int = DEFAULT_PACKING_CAP,
    limit: int | None = None,
) -> LocalityProfile:
    n, b = code.n, code.b
    targets = [(j, None) for j in range(n)] + [(j, i) for i in range(b) for j in range(n)]
    wits = _witnesses(code, targets)
    node_wits = tuple(wits[:n])
    sym_wits = tuple(tuple(wits[n * (i + 1) : n * (i + 2)]) for i in range(b))
    r_n = max(w.size for w in node_wits)
    # zero symbols have empty witnesses, so the max runs over nonzero ones
    r_s = max(w.size for w in wits[n:])
    assert r_s <= r_n, "a node recovery set recovers each of its symbols"
    node_t = symbol_t = None
    if with_availability:
        groups = [_nonzero_targets(code, "node", r_n), _nonzero_targets(code, "symbol", r_s)]
        node_t, symbol_t = _worst_availability(code, groups, exact_cap=exact_cap, limit=limit)
    return LocalityProfile(
        node_locality=r_n,
        symbol_locality=r_s,
        node_witnesses=node_wits,
        symbol_witnesses=sym_wits,
        node_t=node_t,
        symbol_t=symbol_t,
    )


# --- availability ---------------------------------------------------------------


def max_disjoint_packing(sets, *, exact_cap: int = DEFAULT_PACKING_CAP):
    """Largest pairwise-disjoint subcollection.

    Exact: a pairwise-disjoint pool itself, else branch-and-bound (element
    branching with fail-first pivots) on a pool within exact_cap. Otherwise
    greedy plus one-out-two-in local improvement, flagged exact=False.
    Returns (count, chosen, exact).
    """
    cand = sorted({frozenset(s) for s in sets}, key=lambda f: (len(f), sorted(f)))
    if not cand:
        return 0, (), True
    used: set = set()
    greedy = []
    for c in cand:
        if used.isdisjoint(c):
            greedy.append(c)
            used |= c
    if len(greedy) == len(cand):
        return len(greedy), tuple(greedy), True
    if len(cand) > exact_cap:
        greedy = _improve_packing(cand, greedy)
        return len(greedy), tuple(greedy), False

    best = list(greedy)
    best_n = len(greedy)
    # best changes only on a strict gain, so stopping at a known optimum keeps
    # the family the full search returns
    goal = _matching_value(cand) if len(cand[-1]) <= 2 else None

    def dfs(active, chosen):
        nonlocal best, best_n
        if len(chosen) > best_n:
            best_n = len(chosen)
            best = list(chosen)
        if not active or best_n == goal:
            return
        free = set().union(*active)
        msz = min(len(a) for a in active)
        if len(chosen) + min(len(active), len(free) // msz) <= best_n:
            return
        # fail-first: branch on the element with the fewest supporting sets
        counts: dict = {}
        for a in active:
            for e in a:
                counts[e] = counts.get(e, 0) + 1
        pivot = min(counts, key=lambda e: (counts[e], e))
        with_pivot = [a for a in active if pivot in a]
        for c in with_pivot:
            dfs([a for a in active if a.isdisjoint(c)], chosen + [c])
        dfs([a for a in active if pivot not in a], chosen)

    dfs(cand, [])
    assert goal is None or best_n == goal, "branch-and-bound and matching disagree"
    return best_n, tuple(best), True


def _matching_value(sets) -> int:
    """Largest packing of distinct sets of size <= 2.

    A set of size < 2 is always worth taking, since it meets at most one
    pair of a packing; the pairs clear of those sets are the edges of a
    graph, packed by a maximum matching: Edmonds' blossom search, started
    from a greedy matching, with one augmenting-path search per free vertex.
    """
    loose = [s for s in sets if len(s) < 2]
    taken = set().union(*loose)
    edges = [s for s in sets if len(s) == 2 and taken.isdisjoint(s)] if loose else sets
    mate: dict = {}
    for a, c in edges:
        if a not in mate and c not in mate:
            mate[a], mate[c] = c, a
    vertices = set().union(*edges)
    n, size = len(vertices), len(mate) // 2
    if 2 * (size + 1) > n:  # the greedy start already covers all but one vertex
        return len(loose) + size
    ids = {x: i for i, x in enumerate(vertices)}
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, c in edges:
        adj[ids[a]].append(ids[c])
        adj[ids[c]].append(ids[a])
    match = [ids[mate[x]] if x in mate else -1 for x in ids]

    def augment(root) -> bool:
        # BFS over alternating paths from root; an odd cycle (blossom) is
        # shrunk onto its base, so the path found is augmenting in the graph
        parent, base = [-1] * n, list(range(n))
        seen = [i == root for i in range(n)]
        queue = [root]

        def lca(a, c):
            path = {base[a]}
            while match[base[a]] >= 0:
                a = parent[match[base[a]]]
                path.add(base[a])
            while base[c] not in path:
                c = parent[match[base[c]]]
            return base[c]

        def mark(v, stem, child, blossom):
            while base[v] != stem:
                blossom.update((base[v], base[match[v]]))
                parent[v] = child
                child = match[v]
                v = parent[child]

        for v in queue:
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or match[w] >= 0 and parent[match[w]] >= 0:
                    stem, blossom = lca(v, w), set()
                    mark(v, stem, w, blossom)
                    mark(w, stem, v, blossom)
                    inside = [i for i in range(n) if base[i] in blossom]
                    queue += [i for i in inside if not seen[i]]
                    for i in inside:
                        base[i], seen[i] = stem, True
                elif parent[w] < 0:
                    parent[w] = v
                    if match[w] < 0:
                        while w >= 0:
                            v, nxt = parent[w], match[parent[w]]
                            match[w], match[v] = v, w
                            w = nxt
                        return True
                    seen[match[w]] = True
                    queue.append(match[w])
        return False

    for root in range(n):
        if 2 * (size + 1) > n:
            break
        if match[root] < 0 and augment(root):
            size += 1
    return len(loose) + size


def _packing_value(pool, exact_cap) -> int:
    """The count max_disjoint_packing returns for pool, by a maximum matching
    when every set has size <= 2 and the pool is within the cap."""
    if len(pool) <= exact_cap and max(map(len, pool), default=0) <= 2:
        return _matching_value(pool)
    return max_disjoint_packing(pool, exact_cap=exact_cap)[0]


def _improve_packing(cand, chosen):
    """Swap one chosen set for two disjoint unused ones while possible."""
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


@dataclass(frozen=True)
class AvailabilityResult:
    value: int
    exact: bool
    sets: tuple[frozenset, ...]


def _nonzero_targets(code: ArrayCode, kind: str, r: int) -> list[tuple]:
    """(column, row, r) for every nonzero node (row None) or symbol of the code."""
    gen = code._packed_generator
    nonzero = gen.unheld(gen.rows)
    rows = (None,) if kind == "node" else range(code.b)
    group = [(j, i, r) for j in range(code.n) for i in rows if gen.flag(j, i) & nonzero]
    if not group:
        raise BadParams(f"code has no nonzero {kind}")
    return group


def _worst_availability(code: ArrayCode, groups, *, exact_cap, limit) -> list:
    """Worst availability over each group of distinct (column, row, r)
    targets, with every pool from one walk: the packing of the group's first
    pool with the smallest value, the only pool of the group whose family is
    searched."""
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


# --- disjoint pair system on the full width-2 subspace family -------------------


@dataclass(frozen=True)
class PairingResult:
    """Disjoint helper pairs for one target inside the full width-2 family.

    pairs holds index pairs into the size-ordered width-2 subspace list; a
    pair (a, c) means subspaces a and c together recover the target. Over
    characteristic-2 fields every non-target subspace is used exactly once.
    """

    target_index: int
    pairs: tuple[tuple[int, int], ...]
    covered: int
    total_others: int


def grassmann_pairing(field, M: int, *, limit=None) -> list[PairingResult]:
    """Pair up 2-dim subspaces so each pair's sum contains the 2-dim target,
    for every target: one result per subspace, in enumerate_grassmannian order.

    Subspaces meeting the target in a line are grouped by that line and
    paired across different lines; subspaces disjoint from the target are
    paired within translation classes. For even q the pairing is perfect
    (every non-target subspace lands in exactly one pair); for odd q the
    disjoint classes pair only partially and the result is a lower bound.

    The Grassmannian and its point incidence are built once, so the
    subspaces through each point of a target are a lookup.
    """
    if M < 2:
        raise BadParams(f"pairing needs 2-dim subspaces, got M={M}")
    grass = enumerate_grassmannian(field, M, 2, limit=limit)
    through = point_incidence(grass)
    return [
        _pairing(field, grass, t_idx, [through[p] for p in _points(target)])
        for t_idx, target in enumerate(grass)
    ]


def _pairing(field, grass, t_idx: int, lines) -> PairingResult:
    """The pair family of target grass[t_idx]; lines[i] lists the subspaces
    through the target's i-th point, the target among them."""
    target, q, M = grass[t_idx], field.q, grass[t_idx].ambient
    L = _layout(field)
    meet_classes = [[i for i in cls if i != t_idx] for cls in lines]
    met = {i for cls in lines for i in cls}
    disjoint_classes = _disjoint_classes(field, grass, target, met)

    pairs: list[tuple[int, int]] = []

    # across-line pairs: split each line's class into q equal parts, one per
    # other line, and zip opposite parts together
    per = len(meet_classes[0]) // q if meet_classes[0] else 0
    parts: dict[tuple[int, int], list[int]] = {}
    for i, cls in enumerate(meet_classes):
        assert len(cls) == per * q
        labels = [j for j in range(len(lines)) if j != i]
        for which, j in enumerate(labels):
            parts[(i, j)] = cls[which * per : (which + 1) * per]
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pairs.extend(zip(parts[(i, j)], parts[(j, i)]))

    # within-class pairs for subspaces disjoint from the target
    # in the order of the unpacked ubar, which packed ints do not keep
    for ubar in sorted(disjoint_classes, key=lambda u: [L.unpack(row, M) for row in u]):
        members = disjoint_classes[ubar]
        done = set()
        for key in sorted(members):
            if key in done:
                continue
            (x1, x2) = key
            if q % 2 == 0:
                partner = ((x1[0] ^ 1, x1[1]), (x2[0], x2[1] ^ 1))
            elif field.sub(field.mul(x1[0], x2[1]), field.mul(x1[1], x2[0])) == 0:
                continue
            else:
                partner = (tuple(field.neg(x) for x in x1), tuple(field.neg(x) for x in x2))
            done.update((key, partner))
            pairs.append((members[key], members[partner]))

    used = [i for p in pairs for i in p]
    assert len(used) == len(set(used)) and t_idx not in used
    return PairingResult(t_idx, tuple(pairs), len(used), len(grass) - 1)


def _disjoint_classes(field, grass, target, met) -> dict[tuple, dict[tuple, int]]:
    """The subspaces of grass outside met, those disjoint from the 2-dim
    target, as classes[ubar][key] = index.

    Such a subspace w is the graph of a map from its projection ubar (off the
    target's pivots) into the target: reducing the packed rows [u | w] reads
    ubar's canonical basis and, at the target's pivots, the map's
    coordinates, the key. Over GF(2) the two rows are reduced in line."""
    M = target.ambient
    L = _layout(field)
    top = M * L.sym
    low = (1 << top) - 1
    classes: dict[tuple, dict[tuple, int]] = {}
    if field.q != 2:
        for idx, s in enumerate(grass):
            if idx in met:
                continue
            split = [_residual(field, M, target.rows, target.pivots, r) | r << top for r in s.rows]
            split, pivots = _rref_rows(field, 2 * M, split)
            assert pivots[-1] < M, "a subspace disjoint from the target projects onto a plane"
            key = tuple(tuple(L.entry(row, M + p) for p in target.pivots) for row in split)
            classes.setdefault(tuple(row & low for row in split), {})[key] = idx
        return classes
    (t0, t1), (p0, p1) = target.rows, target.pivots
    k0, k1 = top + p0, top + p1
    for idx, s in enumerate(grass):
        if idx in met:
            continue
        r0, r1 = s.rows
        # [_residual(row) | row] for each row: the residual against the
        # target in the low M bits, the row itself above them
        u, w = r0 << top | r0, r1 << top | r1
        if r0 >> p0 & 1:
            u ^= t0
        if r0 >> p1 & 1:
            u ^= t1
        if r1 >> p0 & 1:
            w ^= t0
        if r1 >> p1 & 1:
            w ^= t1
        # _rref_rows of [u, w]: pivots at the lowest set bits, rows by pivot
        c0 = (u & -u).bit_length() - 1
        if w >> c0 & 1:
            w ^= u
        c1 = (w & -w).bit_length() - 1
        assert c0 < M and c1 < M, "a subspace disjoint from the target projects onto a plane"
        if u >> c1 & 1:
            u ^= w
        if c1 < c0:
            u, w = w, u
        key = ((u >> k0 & 1, u >> k1 & 1), (w >> k0 & 1, w >> k1 & 1))
        classes.setdefault((u & low, w & low), {})[key] = idx
    return classes


# --- repair ----------------------------------------------------------------------


@dataclass(frozen=True)
class RepairResult:
    column: tuple[int, ...]
    used: RecoverySet
    message: tuple[int, ...]


@dataclass
class _RepairPlan:
    """What repairing one column of a code needs beyond the received array.

    decoder writes the surviving symbols as a message times the generator
    rows restricted to the survivors. witness is the node's smallest recovery
    set, found after the first request that decodes, so a request the
    decoder rejects makes no search.
    """

    decoder: _Combiner
    witness: RecoverySet | None = None


def _repair_plan(code: ArrayCode, column: int) -> _RepairPlan:
    lo, hi = column * code.b, (column + 1) * code.b
    rows = [r[:lo] + r[hi:] for r in code.generator.rows]
    return _RepairPlan(_Combiner(code.field, (code.n - 1) * code.b, rows))


def repair(code: ArrayCode, array: Mat, column: int) -> RepairResult:
    """Rebuild one column of a codeword array from the surviving columns.

    The surviving columns must be consistent with some codeword; otherwise
    Inconsistent is raised. The rebuilt column comes from the smallest node
    recovery set, and is cross-checked against the decoded message. The
    recovery set and the decoder depend only on (code, column), so each code
    keeps them per column for the requests that follow.
    """
    _check_shape(code, array)
    if not 0 <= column < code.n:
        raise OutOfRange(f"column {column} outside 0..{code.n - 1}")
    plans = code._repair_plans
    plan = plans.get(column)
    if plan is None:
        plan = plans[column] = _repair_plan(code, column)
    survivors = [x for m, col in enumerate(zip(*array.rows)) if m != column for x in col]
    message = plan.decoder.solve(survivors)
    if message is None:
        raise Inconsistent("surviving columns do not agree with any codeword")
    if plan.witness is None:
        plan.witness = min_node_recovery(code, column)
    restored = evaluate_recovery(code, plan.witness, array)
    expected = tuple(vec_dot(code.field, message, code.column_vector(i, column)) for i in range(code.b))
    assert restored == expected, "recovery functionals disagree with decoding"
    return RepairResult(restored, plan.witness, message)
