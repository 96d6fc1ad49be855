"""Brute-force reference implementations used only by the test suite.

Everything here trades speed for obviousness: exhaustive search over
subsets, chains, orientations, or whole function spaces. Each oracle is
written independently of the package internals it checks.
"""

import random
from dataclasses import dataclass
from itertools import permutations, product

from intrank import IntInterval, IntervalOrder, Poset, conjugate_rank, standard_rank


def closure_pairs(n, pairs):
    """Reflexive-transitive closure as a set of (i, j) pairs, naive loop."""
    rel = {(i, i) for i in range(n)} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def brute_height(p: Poset) -> int:
    """Longest chain by recursion over strict successors."""
    best = {}

    def longest(a):
        if a not in best:
            best[a] = 1 + max((longest(b) for b in range(p.n)
                               if p.lt(a, b)), default=0)
        return best[a]

    return max(longest(a) for a in range(p.n))


def brute_heights(p: Poset) -> tuple:
    """(up, down) chain heights per element, by recursion over p.lt: the
    longest chain inside each element's up-set and inside its down-set."""
    up, down = {}, {}

    def longest_up(a):
        if a not in up:
            up[a] = 1 + max((longest_up(b) for b in range(p.n) if p.lt(a, b)),
                            default=0)
        return up[a]

    def longest_down(a):
        if a not in down:
            down[a] = 1 + max((longest_down(b) for b in range(p.n) if p.lt(b, a)),
                              default=0)
        return down[a]

    return (tuple(longest_up(a) for a in range(p.n)),
            tuple(longest_down(a) for a in range(p.n)))


def brute_is_chain(p: Poset) -> bool:
    """Every pair of elements is comparable."""
    return all(p.comparable(a, b) for a in range(p.n) for b in range(a + 1, p.n))


def brute_width(p: Poset) -> int:
    """Largest antichain by checking every subset."""
    best = 0
    for mask in range(1 << p.n):
        members = [i for i in range(p.n) if mask >> i & 1]
        if len(members) <= best:
            continue
        if all(not p.comparable(a, b)
               for k, a in enumerate(members) for b in members[k + 1:]):
            best = len(members)
    return best


def brute_maximal_chains(p: Poset) -> set:
    """Inclusion-maximal chains, grown one strict successor at a time."""
    out = set()

    def grow(chain):
        nxt = [b for b in range(p.n)
               if p.lt(chain[-1], b)
               and all(p.lt(c, b) for c in chain)]
        covers_next = [b for b in nxt
                       if not any(p.lt(chain[-1], c) and p.lt(c, b) for c in nxt)]
        if not covers_next:
            out.add(tuple(chain))
            return
        for b in covers_next:
            grow(chain + [b])

    for a in range(p.n):
        if not any(p.lt(b, a) for b in range(p.n)):
            grow([a])
    return out


def brute_is_graded(p: Poset) -> bool:
    """Bounded-poset gradedness as equal maximal chain sizes."""
    sizes = {len(c) for c in brute_maximal_chains(p)}
    return len(sizes) == 1


def intervals_within(bound: int):
    return [IntInterval(a, b)
            for a in range(bound + 1) for b in range(a, bound + 1)]


# Endpoint monotonicity pattern demanded of a strict rank function, as
# (lo_sign, hi_sign) for a < b: +1 means the endpoint strictly increases.
_ENDPOINT_PATTERN = {
    "weak": (1, 1),
    "dual-weak": (-1, -1),
    "subset": (-1, 1),
    "superset": (1, -1),
}


def classify_by_endpoint_pattern(p: Poset, ranks):
    """Priority classification by brute endpoint-monotonicity checks.

    Returns the first order name whose strict monotonicity pattern every
    related pair satisfies, in the fixed priority order, else None.
    """
    pairs = [(a, b) for a in range(p.n) for b in range(p.n)
             if a != b and p.leq(a, b)]

    def holds(name):
        lo_sign, hi_sign = _ENDPOINT_PATTERN[name]
        for a, b in pairs:
            lo_ok = (ranks[a].lo < ranks[b].lo if lo_sign > 0
                     else ranks[a].lo > ranks[b].lo)
            hi_ok = (ranks[a].hi < ranks[b].hi if hi_sign > 0
                     else ranks[a].hi > ranks[b].hi)
            if not (lo_ok and hi_ok):
                return False
        return True

    for name in ("dual-weak", "weak", "subset", "superset"):
        if holds(name):
            return name
    return None


def strict_rank_functions(p: Poset, order, bound: int):
    """Every interval assignment into [0, bound] whose endpoint maps are
    strictly monotone in the pattern the given order requires.

    This is stronger than mapping related pairs to strictly ordered
    intervals: both endpoint maps must move strictly, in the antitone or
    isotone direction characteristic of the order. Elements are filled in
    along a linear extension so each new value only needs checking against
    already assigned comparable elements.
    """
    lo_sign, hi_sign = _ENDPOINT_PATTERN[getattr(order, "value", order)]

    def below(x, y):
        # x strictly below y in the order, endpoint-strict
        return ((x.lo < y.lo if lo_sign > 0 else x.lo > y.lo)
                and (x.hi < y.hi if hi_sign > 0 else x.hi > y.hi))

    pool = intervals_within(bound)
    topo = sorted(range(p.n), key=lambda a: p.down_rows[a].bit_count())
    assigned = {}

    def fill(k):
        if k == p.n:
            yield tuple(assigned[a] for a in range(p.n))
            return
        e = topo[k]
        for iv in pool:
            ok = True
            for other, val in assigned.items():
                if p.lt(other, e) and not below(val, iv):
                    ok = False
                    break
                if p.lt(e, other) and not below(iv, val):
                    ok = False
                    break
            if ok:
                assigned[e] = iv
                yield from fill(k + 1)
                del assigned[e]

    yield from fill(0)


def overlap_edges(ground):
    """Unordered index pairs of distinct intersecting intervals."""
    m = len(ground)
    return [(i, j) for i in range(m) for j in range(i + 1, m)
            if not (ground[i].hi < ground[j].lo or ground[j].hi < ground[i].lo)]


def brute_transitive_orientations(ground):
    """All transitive orientations of the overlap graph, as strict-pair sets.

    Feasible only for small grounds (2^edges candidates); each candidate is
    accepted iff its strict relation is transitive, which also forces its
    comparability graph to be exactly the overlap graph.
    """
    m = len(ground)
    edges = overlap_edges(ground)
    found = set()
    for bits in product((0, 1), repeat=len(edges)):
        lt = [[False] * m for _ in range(m)]
        for (i, j), b in zip(edges, bits):
            if b:
                lt[i][j] = True
            else:
                lt[j][i] = True
        ok = True
        for a in range(m):
            if not ok:
                break
            for b in range(m):
                if lt[a][b]:
                    for c in range(m):
                        if lt[b][c] and not lt[a][c]:
                            ok = False
                            break
                if not ok:
                    break
        if ok:
            found.add(frozenset((a, b) for a in range(m) for b in range(m)
                                if lt[a][b]))
    return found


def backtrack_orientations(ground, limit=None):
    """Transitive orientations of the overlap graph by the pair-matrix
    backtracking search the package used before its bitset-row search.

    Returns each orientation's reflexive bitset rows (bit j of rows[i]: i
    below or equal to j), in search order; `limit` keeps a prefix.
    """
    m = len(ground)
    edge = [[False] * m for _ in range(m)]
    edges = overlap_edges(ground)
    for i, j in edges:
        edge[i][j] = edge[j][i] = True

    rel = [[0] * m for _ in range(m)]  # 1: row < col, -1: row > col
    solutions = []

    def orient(a, b, trail):
        # record a < b and propagate transitivity; False on contradiction
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            if rel[x][y] == 1:
                continue
            if rel[x][y] == -1 or not edge[x][y]:
                return False
            rel[x][y] = 1
            rel[y][x] = -1
            trail.append((x, y))
            for c in range(m):
                if rel[c][x] == 1:   # c < x < y
                    stack.append((c, y))
                if rel[y][c] == 1:   # x < y < c
                    stack.append((x, c))
        return True

    def dfs(start):
        if limit is not None and len(solutions) >= limit:
            return
        idx = start
        while idx < len(edges) and rel[edges[idx][0]][edges[idx][1]] != 0:
            idx += 1
        if idx == len(edges):
            solutions.append(tuple(
                sum(1 << j for j in range(m) if i == j or rel[i][j] == 1)
                for i in range(m)))
            return
        a, b = edges[idx]
        for u, v in ((a, b), (b, a)):
            trail = []
            if orient(u, v, trail):
                dfs(idx + 1)
            for x, y in trail:
                rel[x][y] = 0
                rel[y][x] = 0
            if limit is not None and len(solutions) >= limit:
                return

    dfs(0)
    return solutions


def brute_are_conjugate(t1, t2):
    """Every distinct pair comparable in exactly one table, pair by pair."""
    m = len(t1.ground)
    return all(t1.comparable(i, j) != t2.comparable(i, j)
               for i in range(m) for j in range(i + 1, m))


def brute_are_pseudo_conjugate(t1, t2):
    """Every distinct pair comparable in at least one table, pair by pair."""
    m = len(t1.ground)
    return all(t1.comparable(i, j) or t2.comparable(i, j)
               for i in range(m) for j in range(i + 1, m))


# Obstruction to conjugates of the strong order on the 1..4 ground: the ten
# intervals minus [1,4], [2,2] and [3,3]. Orientation forcing runs in a cycle
# through these seven, so their overlap graph (13 edges) has no transitive
# orientation, and neither has the whole ground's, which restricts to it.
STRONG_1_4_WITNESS = (
    IntInterval(1, 1), IntInterval(1, 2), IntInterval(1, 3),
    IntInterval(2, 3), IntInterval(2, 4), IntInterval(3, 4),
    IntInterval(4, 4),
)


def gamma_orientable(ground) -> bool:
    """Comparability test for the overlap graph via implication classes.

    Arcs (a, b) and (a, c) are forced equal when b and c are nonadjacent,
    likewise (a, b) and (c, b) when a and c are nonadjacent. The graph has
    a transitive orientation iff no implication class contains an arc in
    both directions.
    """
    m = len(ground)
    adj = [[False] * m for _ in range(m)]
    for i, j in overlap_edges(ground):
        adj[i][j] = adj[j][i] = True
    arcs = [(a, b) for a in range(m) for b in range(m) if a != b and adj[a][b]]
    idx = {arc: k for k, arc in enumerate(arcs)}
    parent = list(range(len(arcs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in arcs:
        for c in range(m):
            if c != a and c != b:
                if adj[a][c] and not adj[b][c]:
                    parent[find(idx[(a, b)])] = find(idx[(a, c)])
                if adj[c][b] and not adj[c][a]:
                    parent[find(idx[(a, b)])] = find(idx[(c, b)])
    return all(find(idx[(a, b)]) != find(idx[(b, a)]) for a, b in arcs)


def brute_canonical_form(p: Poset) -> tuple:
    """(n, least row tuple) over all n! relabellings: element i goes to
    perm[i], so bit perm[j] of row perm[i] is set iff i <= j."""
    pairs = [(i, j) for i in range(p.n) for j in range(p.n) if p.leq(i, j)]
    best = None
    for perm in permutations(range(p.n)):
        rows = [0] * p.n
        for i, j in pairs:
            rows[perm[i]] |= 1 << perm[j]
        rows = tuple(rows)
        if best is None or rows < best:
            best = rows
    return (p.n, best)


def relabel(p: Poset, perm) -> Poset:
    """The same order with element i renamed perm[i]."""
    rows = [0] * p.n
    for i in range(p.n):
        for j in range(p.n):
            if p.leq(i, j):
                rows[perm[i]] |= 1 << perm[j]
    return Poset(rows)


def upper_triangle_posets(n: int):
    """Every poset on n labelled elements, one per upper-triangular closure.

    Each isomorphism class contains a representative whose relation points
    upward in index order (relabel along a linear extension), so closing
    every subset of {(i, j) : i < j} reaches every class.
    """
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in product((0, 1), repeat=len(slots)):
        gens = [pair for pair, b in zip(slots, bits) if b]
        yield Poset.from_relation(n, gens)


def brute_kdim_poset(cfg) -> Poset:
    """random_kdim_poset by each element's position in each of the k
    shuffled orders: i <= j iff i comes no later than j in all of them."""
    rng = random.Random(cfg.seed)
    n = cfg.n
    positions = []
    for _ in range(cfg.k):
        perm = list(range(n))
        rng.shuffle(perm)
        pos = [0] * n
        for where, v in enumerate(perm):
            pos[v] = where
        positions.append(pos)
    rows = []
    for i in range(n):
        m = 0
        for j in range(n):
            if all(pos[i] <= pos[j] for pos in positions):
                m |= 1 << j
        rows.append(m)
    p = Poset(rows)
    return p.add_bounds() if cfg.add_bounds else p


# The rank-image orders compared pair by pair, and the listing order of the
# distinct ranks under each.
_IMAGE_ORDERS = {
    "dual-weak": (standard_rank, lambda iv: (-iv.lo, -iv.hi)),
    "subset": (conjugate_rank, lambda iv: (-iv.lo, iv.hi)),
}


@dataclass(frozen=True)
class BruteImage:
    """A rank image built by the oracle, with the attributes of RankPoset
    that the tests compare."""

    intervals: tuple
    order: Poset
    blocks: tuple

    def __len__(self):
        return len(self.blocks)


def brute_rank_image(p: Poset, order: str) -> BruteImage:
    """rank_image ("dual-weak") or conjugate_image ("subset"), by k^2 pairwise
    interval comparisons and a scan of every element per block."""
    rank, sort_key = _IMAGE_ORDERS[order]
    relation = IntervalOrder(order)
    ranks = rank(p).ranks
    distinct = sorted(set(ranks), key=sort_key)
    rows = []
    for x in distinct:
        m = 0
        for j, y in enumerate(distinct):
            if relation.leq(x, y):
                m |= 1 << j
        rows.append(m)
    blocks = tuple(tuple(a for a in range(p.n) if ranks[a] == iv)
                   for iv in distinct)
    image = Poset(rows, tuple(str(iv) for iv in distinct))
    return BruteImage(tuple(distinct), image, blocks)


def brute_rank_all(p: Poset) -> Poset:
    """rank_all by n^2 strict dual-weak comparisons of standard ranks."""
    ranks = standard_rank(p).ranks
    rows = []
    for a in range(p.n):
        m = 1 << a
        for b in range(p.n):
            if a != b and IntervalOrder.DUAL_WEAK.lt(ranks[a], ranks[b]):
                m |= 1 << b
        rows.append(m)
    return Poset(rows, p.labels)


def brute_iteration_stages(p: Poset) -> list:
    """iterate_to_chain's stages: brute_rank_image applied to each image in
    turn, until brute_is_chain holds."""
    stages = []
    current = p
    while not brute_is_chain(current):
        stages.append(brute_rank_image(current, "dual-weak"))
        current = stages[-1].order
    return stages


def brute_preorder_levels(p: Poset) -> tuple:
    """iterate_to_chain's preorder levels, iterating brute_rank_image and
    following each element through the blocks it falls in."""
    member = list(range(p.n))
    current = p
    for rp in brute_iteration_stages(p):
        member = [next(i for i, blk in enumerate(rp.blocks) if e in blk)
                  for e in member]
        current = rp.order
    # a chain lists its top first when sorted by up-set size
    top_first = sorted(range(current.n), key=lambda i: current.rows[i].bit_count())
    return tuple(tuple(a for a in range(p.n) if member[a] == lvl)
                 for lvl in top_first)
