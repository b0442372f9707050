"""Recovery sets, locality, availability and single-column repair.

A set of helper columns recovers a whole node when the node's associated
subspace lies inside the sum of the helpers' subspaces, and recovers one
symbol when that symbol's generator column lies inside the sum. Locality is
the worst-case minimum helper count over targets; availability counts how
many pairwise disjoint helper sets (each within the locality bound) a
single target admits.

All searches are exact and deterministic: subsets are tried in size order,
then lexicographically, and the first valid set wins. While one node j is
the only pending target, the generator is reduced modulo U_j once, then
modulo each prefix sum S in step with the walk; where U_j and the prefix's
subspaces are independent, only the nodes inside S + U_j are tried as the
last helper, and a prefix with none is never reduced on its own.

Availability packs the minimal valid helper sets, which one walk records once
each with the flags of every target they serve: exactly when the pool is
within the packing cap or pairwise disjoint, else as a flagged greedy lower
bound. When a group's candidate sets are within the cap, a target needs no
pool when a greedy over the recorded pairs, run for all targets at once,
reaches the counting bound, or when the pairs shared by the whole group form
a factor-critical graph on its pool's columns. The rest are packed, at r <= 2
by their singleton count plus a maximum matching. The family shown for a
group comes from branch-and-bound on the group's first worst pool only,
stopped once it reaches that optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .arraycode import ArrayCode
from .designs import enumerate_grassmannian, point_incidence
from .errors import BadParams, Inconsistent, NoRecovery, OutOfRange
from .limits import DEFAULT_PACKING_CAP, guard
from .linalg import (
    Mat,
    _Combiner,
    _Quotients,
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
    = (the symbol's generator column) and free variables 0, as solve gives."""
    pack = _layout(code.field).pack
    helpers = [pack(code.column_vector(i, m)) for m in columns for i in range(code.b)]
    combiner = _Combiner(code.field, code.M, helpers)
    out = tuple(combiner.solve(code.column_vector(i, column)) for i in rows)
    assert None not in out, "recovery set accepted but no functional exists"
    return out


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


def _own_flags(gen, n: int, targets) -> list[int]:
    """own[m]: the flags of the targets in column m, which its helper sets never hold."""
    own = [0] * n
    for column, row, *_ in targets:
        own[column] |= gen.flag(column, row)
    return own


def _held_flags(gen, own, subset, rows, wanted: int) -> int:
    """The flags in wanted, outside the subset's own columns, that its sum holds."""
    for m in subset:
        wanted &= ~own[m]
    return wanted & ~gen.unheld(rows)


def _indices(flags: int, index):
    """index[bit] for each set bit of flags, lowest first."""
    while flags:
        bit = flags & -flags
        yield index[bit]
        flags ^= bit


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
    own = _own_flags(gen, code.n, targets)
    # a column is a helper unless every target sits in it
    homes = {column for column, _ in targets}
    columns = [m for m in range(code.n) if len(homes) > 1 or m not in homes]
    modulo_j = None  # the generator modulo U_j, then modulo each prefix sum

    def leaves(prefix):
        # one node j pending, U_j and the summands of the prefix sum S
        # independent: a leaf m with U_j in S + U_m has dim(S + U_m) <=
        # dim(S + U_j), so U_m lies in S + U_j
        nonlocal modulo_j
        k = waiting.get(pending)
        if k is None or targets[k][1] is not None:
            return gen.guards
        if modulo_j is None:
            modulo_j = _Quotients(gen, gen.eliminate(gen.rows, targets[k][0]))
        rest = modulo_j(prefix)
        if code.M - len(rest) == code.b + sum(code.subspaces[a].dim for a in prefix):
            return gen.guards & ~gen.unheld(rest)
        return gen.guards

    for size in range(1, code.n):
        if not pending:
            break
        for subset, rows in _subset_quotients(gen, columns, size, leaves):
            held = _held_flags(gen, own, subset, rows, pending)
            if held:
                pending ^= held
                for k in _indices(held, waiting):
                    found[k] = subset
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


def _minimal_record(code: ArrayCode, targets, *, limit=None) -> list[tuple[tuple, int]]:
    """Every helper set minimal for some target, once, in (size, lex) order,
    with the flags of the targets it is minimal for.

    targets are distinct (column, row, r) triples; a helper set is valid for
    one when its size is at most r and its sum holds the target. Sums only
    grow, so a valid set is minimal unless one of its faces, the subsets one
    element smaller, was valid too: it is minimal for the flags it holds
    that no face's valid flags (prev[face]) carry.
    """
    for r in dict.fromkeys(r for _, _, r in targets):
        total = _candidate_count(code.n, r)
        guard(total, f"enumerating {total} candidate helper sets", limit)
    gen = code._packed_generator
    assert len({gen.flag(c, i) for c, i, _ in targets}) == len(targets), "targets must be distinct"
    own = _own_flags(gen, code.n, targets)
    record: list[tuple[tuple, int]] = []
    prev: dict[tuple, int] = {}
    for size in range(1, max((r for _, _, r in targets), default=0) + 1):
        active = [t for t in targets if t[2] >= size]
        wanted = sum(gen.flag(c, i) for c, i, _ in active)
        grow = sum(gen.flag(c, i) for c, i, r in active if r > size)
        columns = [m for m in range(code.n) if any(t[0] != m for t in active)]
        valid: dict[tuple, int] = {}
        for subset, rows in _subset_quotients(gen, columns, size):
            held = _held_flags(gen, own, subset, rows, wanted)
            if not held:
                continue
            fresh = held
            if prev:
                for i in range(size):
                    fresh &= ~prev.get(subset[:i] + subset[i + 1 :], 0)
            if fresh:
                record.append((subset, fresh))
            if held & grow:
                valid[subset] = held & grow
        prev = valid
    return record


def _pools(record, flags) -> dict[int, list[tuple]]:
    """pools[f]: the record's sets minimal for the target of flag f, in record order."""
    pools: dict[int, list[tuple]] = {f: [] for f in flags}
    wanted = sum(pools)
    for subset, held in record:
        held &= wanted
        while held:
            bit = held & -held
            pools[bit].append(subset)
            held ^= bit
    return pools


def _minimal_recovery_sets(code: ArrayCode, targets, *, limit=None) -> list[list[tuple]]:
    """Each target's minimal valid helper sets, in (size, lex) order."""
    flags = [code._packed_generator.flag(c, i) for c, i, _ in targets]
    pools = _pools(_minimal_record(code, targets, limit=limit), flags)
    return [pools[f] for f in flags]


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
    graph, packed by a maximum matching.
    """
    loose = [s for s in sets if len(s) < 2]
    taken = set().union(*loose)
    edges = [s for s in sets if len(s) == 2 and taken.isdisjoint(s)] if loose else sets
    return len(loose) + _maximum_matching(set().union(*edges), edges)[0]


def _maximum_matching(vertices, edges):
    """A maximum matching of a graph: Edmonds' blossom search, started from a
    greedy matching, with one augmenting-path search per free vertex.

    Returns (size, match, augment), the vertices numbered in the order
    given: match[i] is the mate of vertex i, or -1. augment(root) searches
    the alternating paths from the free vertex root. It flips an augmenting
    path into match and returns None, or returns seen, where seen[i] says
    whether an even alternating path from root reaches i, blossoms included.
    """
    ids = {x: i for i, x in enumerate(vertices)}
    n = len(ids)
    adj: list[list[int]] = [[] for _ in range(n)]
    match = [-1] * n
    for a, c in edges:
        a, c = ids[a], ids[c]
        adj[a].append(c)
        adj[c].append(a)
        if match[a] < 0 and match[c] < 0:
            match[a], match[c] = c, a
    size = (n - match.count(-1)) // 2

    def augment(root):
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
                        return None
                    seen[match[w]] = True
                    queue.append(match[w])
        return seen

    for root in range(n):
        if 2 * (size + 1) > n:  # all but at most one vertex covered
            break
        if match[root] < 0 and augment(root) is None:
            size += 1
    return size, match, augment


def _factor_critical(vertices, edges) -> bool:
    """Whether the graph less any one vertex has a perfect matching.

    It does exactly when a maximum matching leaves one vertex u free and an
    even alternating path from u reaches every vertex (Gallai-Edmonds): each
    such path, flipped, is a maximum matching that leaves its end free.
    """
    _, match, augment = _maximum_matching(vertices, edges)
    free = [i for i, m in enumerate(match) if m < 0]
    return len(free) == 1 and all(augment(free[0]))


def _packing_value(pool, exact_cap) -> int:
    """The count max_disjoint_packing returns for pool, by a maximum matching
    when every set has size <= 2 and the pool is within the cap."""
    if len(pool) <= exact_cap and max(map(len, pool), default=0) <= 2:
        return _matching_value(pool)
    return max_disjoint_packing(pool, exact_cap=exact_cap)[0]


def _improve_packing(cand, chosen):
    """Swap one chosen set for two disjoint unused ones while possible: the
    chosen sets in order, each swap's pair the first in cand order."""
    chosen = list(chosen)
    while True:
        taken, used = set(chosen), set().union(*chosen)
        for drop in chosen:
            rest = used - drop  # the chosen sets are disjoint
            free = [c for c in cand if c not in taken and rest.isdisjoint(c)]
            pair = next(((a, c) for a, c in combinations(free, 2) if a.isdisjoint(c)), None)
            if pair:
                chosen.remove(drop)
                chosen.extend(pair)
                break
        else:
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


def _settle(n: int, record, flags, own, within: bool) -> tuple[list[int], int]:
    """Each target's greedy packing count, a lower bound on its pool's value,
    and the flags of the targets where that count is the value.

    The greedy takes every singleton, then the pairs in record order, for all
    targets at once: used[m] flags the targets whose packing holds column m.
    Within the cap a target is settled when its count reaches the counting
    bound, singletons plus half the columns U of its other sets (a minimal
    set holds no singleton), that is when it leaves at most one column of U
    free. So is each target with U = V(H) less its own column when H, the
    pairs minimal for every target of the group outside their own columns,
    is factor-critical: H less that column has a matching that leaves at
    most one column of U free, and H's pairs clear of it are in the pool.
    """
    group = sum(flags)
    index = {f: k for k, f in enumerate(flags)}
    singles, taken = [0] * len(flags), [0] * len(flags)
    cover, used = [0] * n, [0] * n
    shared = []
    for subset, held in record:
        held &= group
        if not held:
            continue
        if len(subset) == 1:
            for k in _indices(held, index):
                singles[k] += 1
            continue
        for m in subset:
            cover[m] |= held
        if len(subset) == 2:
            a, c = subset
            take = held & ~(used[a] | used[c])
            if take:
                used[a] |= take
                used[c] |= take
                for k in _indices(take, index):
                    taken[k] += 1
            if within and not group & ~(held | own[a] | own[c]):
                shared.append(subset)
    lower = [s + t for s, t in zip(singles, taken)]
    if not within:
        return lower, 0
    once = twice = 0  # targets with a column of U the greedy left free, with two
    for m in range(n):
        free = cover[m] & ~used[m]
        twice |= once & free
        once |= free
    settled = group & ~twice
    vertices = set().union(*shared)
    if settled != group and shared and _factor_critical(vertices, shared):
        fits = group & ~settled
        for m in range(n):
            fits &= cover[m] | own[m] if m in vertices else ~cover[m]
        for k in _indices(fits, index):
            lower[k] = singles[k] + (len(vertices) - 1) // 2
        settled |= fits
    return lower, settled


def _worst_availability(code: ArrayCode, groups, *, exact_cap, limit) -> list:
    """Worst availability over each group of distinct (column, row, r)
    targets, from one record of minimal helper sets: the packing of the
    group's first pool with the smallest value, the only pool of the group
    whose family is searched.

    Targets are visited in order, and one whose greedy count is not below
    the smallest value so far is passed over. When the group's candidate
    sets are within the cap, every pool packs exactly, and a target that
    _settle settles needs no pool; the others are packed.
    """
    gen = code._packed_generator
    record = _minimal_record(code, [t for g in groups for t in g], limit=limit)
    out = []
    for g in groups:
        flags = [gen.flag(c, i) for c, i, _ in g]
        within = _candidate_count(code.n, max(r for _, _, r in g)) <= exact_cap
        lower, settled = _settle(code.n, record, flags, _own_flags(gen, code.n, g), within)
        pools = _pools(record, [f for f in flags if not f & settled])
        worst, value = None, float("inf")
        for f, low in zip(flags, lower):
            if low < value:
                v = low if f & settled else _packing_value(pools[f], exact_cap)
                if v < value:
                    worst, value = f, v
        pool = pools[worst] if worst in pools else _pools(record, [worst])[worst]
        count, sets, exact = max_disjoint_packing(pool, exact_cap=exact_cap)
        assert count == value, "a pool's value and its packing disagree"
        out.append(AvailabilityResult(count, exact, sets))
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
    for ubar in sorted(disjoint_classes, key=_class_order(field, M)):
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


@lru_cache(maxsize=1)
def _class_order(field, M: int):
    """Sort key of a disjoint class's packed ubar rows, in the order of the
    unpacked rows, which packed ints do not keep. Over GF(2) entry i is bit
    i, so that is the order of the bit-reversed rows: a table of the 2^M
    reversals, and nothing is unpacked."""
    if field.q == 2:
        reverse = [int(f"{row:0{M}b}"[::-1], 2) for row in range(1 << M)]
        return lambda u: [reverse[row] for row in u]
    L = _layout(field)
    return lambda u: [L.unpack(row, M) for row in u]


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

    generator holds the code's generator rows packed row-major (symbol i of
    node m at entry i n + m), once per code: the plans of its other columns
    share it. decoder writes the surviving symbols, row-major, as a message
    times those rows with the column's entries spliced out. witness is the
    node's smallest recovery set, found after the first request that
    decodes, so a request the decoder rejects makes no search.
    """

    generator: list[int]
    decoder: _Combiner
    witness: RecoverySet | None = None


def _repair_plan(code: ArrayCode, column: int) -> _RepairPlan:
    n, b, L = code.n, code.b, _layout(code.field)
    shared = next(iter(code._repair_plans.values()), None)
    if shared is not None:
        generator = shared.generator
    else:
        generator = [L.pack(sum((r[i::b] for i in range(b)), ())) for r in code.generator.rows]
    # entries column + i n go; the run of entries after the s-th of them
    # moves down s slots
    cuts = [-1] + [column + i * n for i in range(b)] + [b * n]
    keep = [
        ((1 << hi * L.sym) - (1 << (lo + 1) * L.sym), s * L.sym)
        for s, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]
    rows = [sum((x & mask) >> shift for mask, shift in keep) for x in generator]
    return _RepairPlan(generator, _Combiner(code.field, (n - 1) * b, rows))


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
    try:
        message = plan.decoder.solve(sum((r[:column] + r[column + 1 :] for r in array.rows), ()))
    except OutOfRange:
        # name the first bad entry in column order, node by node
        q = code.field.q
        bad = next(x for m, col in enumerate(zip(*array.rows)) if m != column for x in col if not 0 <= x < q)
        raise OutOfRange(f"entry {bad} outside field of order {q}") from None
    if message is None:
        raise Inconsistent("surviving columns do not agree with any codeword")
    if plan.witness is None:
        plan.witness = min_node_recovery(code, column)
    restored = evaluate_recovery(code, plan.witness, array)
    expected = tuple(vec_dot(code.field, message, code.column_vector(i, column)) for i in range(code.b))
    assert restored == expected, "recovery functionals disagree with decoding"
    return RepairResult(restored, plan.witness, message)
