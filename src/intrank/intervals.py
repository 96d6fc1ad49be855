"""Integer intervals, the order relations over them, and conjugate search."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BudgetExceeded, GroundMismatch
from .poset import Poset, _bits


@dataclass(frozen=True, slots=True)
class IntInterval:
    """A nonempty integer interval [lo, hi] with 0 <= lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"invalid interval [{self.lo},{self.hi}]")

    def width(self) -> int:
        return self.hi - self.lo

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def leq_strong(x: IntInterval, y: IntInterval) -> bool:
    """x wholly precedes y with a gap, or x equals y."""
    return x == y or x.hi < y.lo


def leq_weak(x: IntInterval, y: IntInterval) -> bool:
    """Both endpoints of x are at most the matching endpoints of y."""
    return x.lo <= y.lo and x.hi <= y.hi


def subset(x: IntInterval, y: IntInterval) -> bool:
    """x is contained in y."""
    return x.lo >= y.lo and x.hi <= y.hi


class IntervalOrder(Enum):
    STRONG = "strong"
    WEAK = "weak"
    DUAL_WEAK = "dual-weak"
    SUBSET = "subset"
    SUPERSET = "superset"

    def leq(self, x: IntInterval, y: IntInterval) -> bool:
        if self is IntervalOrder.STRONG:
            return leq_strong(x, y)
        if self is IntervalOrder.WEAK:
            return leq_weak(x, y)
        if self is IntervalOrder.DUAL_WEAK:
            return leq_weak(y, x)
        if self is IntervalOrder.SUBSET:
            return subset(x, y)
        return subset(y, x)

    def lt(self, x: IntInterval, y: IntInterval) -> bool:
        return x != y and self.leq(x, y)


def all_intervals(lo_min: int, hi_max: int) -> list[IntInterval]:
    """Every interval with endpoints in lo_min..hi_max, lexicographic."""
    if lo_min < 0 or hi_max < lo_min:
        raise ValueError("need 0 <= lo_min <= hi_max")
    return [IntInterval(a, b)
            for a in range(lo_min, hi_max + 1)
            for b in range(a, hi_max + 1)]


def _interval_rows(ground: tuple[IntInterval, ...], order: IntervalOrder | str) -> list[int]:
    # Bit j of rows[i] is set iff ground[i] <= ground[j] in the order.
    if not isinstance(order, IntervalOrder):
        order = IntervalOrder(order)
    if len(set(ground)) != len(ground):
        raise ValueError("ground intervals must be distinct")
    rows = []
    for x in ground:
        m = 0
        for j, y in enumerate(ground):
            if order.leq(x, y):
                m |= 1 << j
        rows.append(m)
    return rows


def interval_poset(ground, order: IntervalOrder | str) -> Poset:
    """The poset a given interval order induces on a ground set."""
    ground = tuple(ground)
    return Poset(_interval_rows(ground, order), tuple(str(iv) for iv in ground))


class OrderRelationTable(Poset):
    """An explicit partial order over a fixed tuple of intervals.

    A Poset whose labels name the intervals of `ground`: bit j of rows[i] is
    set iff ground[i] <= ground[j]. The constructor validates the poset
    axioms; distinct labels imply distinct ground intervals.
    """

    def __init__(self, ground, rows):
        self.ground = tuple(ground)
        super().__init__(rows, tuple(str(iv) for iv in self.ground))

    @classmethod
    def from_order(cls, ground, order: IntervalOrder | str) -> "OrderRelationTable":
        ground = tuple(ground)
        return cls(ground, _interval_rows(ground, order))

    @classmethod
    def from_strict_pairs(cls, ground, pairs) -> "OrderRelationTable":
        ground = tuple(ground)
        rows = [1 << i for i in range(len(ground))]
        for a, b in pairs:
            rows[a] |= 1 << b
        return cls(ground, tuple(rows))

    def strict_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i in range(self.n) for j in _bits(self.strict_rows[i]))

    def to_poset(self) -> Poset:
        return self


def _same_ground(t1: OrderRelationTable, t2: OrderRelationTable) -> None:
    if t1.ground != t2.ground:
        raise GroundMismatch("order tables have different ground sets")


def are_conjugate(t1: OrderRelationTable, t2: OrderRelationTable) -> bool:
    """Every distinct pair comparable in exactly one of the two orders."""
    _same_ground(t1, t2)
    m = len(t1.ground)
    for i in range(m):
        for j in range(i + 1, m):
            if t1.comparable(i, j) == t2.comparable(i, j):
                return False
    return True


def are_pseudo_conjugate(t1: OrderRelationTable, t2: OrderRelationTable) -> bool:
    """Every distinct pair comparable in at least one of the two orders.

    Weaker than conjugacy: pairs may be comparable in both orders.
    """
    _same_ground(t1, t2)
    m = len(t1.ground)
    for i in range(m):
        for j in range(i + 1, m):
            if not (t1.comparable(i, j) or t2.comparable(i, j)):
                return False
    return True


def find_conjugates_of_strong(lo_min: int, hi_max: int, limit: int | None = None,
                              *, max_ground: int | None = 12,
                              ) -> list[OrderRelationTable]:
    """All conjugates of the strong order on the full interval ground set.

    A conjugate must make exactly the strong-incomparable pairs comparable,
    so the search enumerates transitive orientations of the complement of
    the strong comparability graph: orient one undirected pair at a time,
    propagating forced orientations (a<b and b<c force a<c; if a and c are
    not an orientable pair the branch dies). Results arrive in a fixed
    deterministic order; `limit` stops the search early, and grounds larger
    than `max_ground` raise BudgetExceeded.
    """
    ground = tuple(all_intervals(lo_min, hi_max))
    m = len(ground)
    if max_ground is not None and m > max_ground:
        raise BudgetExceeded(
            f"ground of {m} intervals exceeds the search budget of {max_ground}")

    edge = [[False] * m for _ in range(m)]
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            if not (ground[i].hi < ground[j].lo or ground[j].hi < ground[i].lo):
                edge[i][j] = edge[j][i] = True
                edges.append((i, j))

    rel = [[0] * m for _ in range(m)]  # 1: row < col, -1: row > col
    solutions: list[OrderRelationTable] = []

    def orient(a: int, b: int, trail: list[tuple[int, int]]) -> bool:
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

    def dfs(start: int) -> None:
        if limit is not None and len(solutions) >= limit:
            return
        idx = start
        while idx < len(edges) and rel[edges[idx][0]][edges[idx][1]] != 0:
            idx += 1
        if idx == len(edges):
            pairs = [(i, j) for i in range(m) for j in range(m) if rel[i][j] == 1]
            solutions.append(OrderRelationTable.from_strict_pairs(ground, pairs))
            return
        a, b = edges[idx]
        for u, v in ((a, b), (b, a)):
            trail: list[tuple[int, int]] = []
            if orient(u, v, trail):
                dfs(idx + 1)
            for x, y in trail:
                rel[x][y] = 0
                rel[y][x] = 0
            if limit is not None and len(solutions) >= limit:
                return

    dfs(0)
    return solutions


def group_conjugates_by_isomorphism(tables) -> list[list[OrderRelationTable]]:
    """Group order tables by the isomorphism class of their poset."""
    groups: dict[tuple, list[OrderRelationTable]] = {}
    for t in tables:
        groups.setdefault(t.to_poset().canonical_form(), []).append(t)
    return list(groups.values())
