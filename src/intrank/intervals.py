"""Integer intervals, the order relations over them, and conjugate search."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import or_

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


def _endpoint_masks(keys: list[tuple[int, int]]) -> tuple[list[int], ...]:
    """Running-OR masks of (lo, hi) keys by endpoint value v.

    Bit i of le_lo[v] is set iff keys[i][0] <= v, of ge_lo[v] iff
    keys[i][0] >= v, and likewise le_hi and ge_hi for keys[i][1]. Endpoints
    must be small nonnegative integers: v runs over 0..max hi + 1, so
    ge_lo[hi + 1] exists for every key.
    """
    size = max((hi for _, hi in keys), default=-1) + 2
    at_lo, at_hi = [0] * size, [0] * size
    for i, (lo, hi) in enumerate(keys):
        at_lo[lo] |= 1 << i
        at_hi[hi] |= 1 << i
    return (list(accumulate(at_lo, or_)), list(accumulate(at_lo[::-1], or_))[::-1],
            list(accumulate(at_hi, or_)), list(accumulate(at_hi[::-1], or_))[::-1])


def _endpoint_rows(keys: list[tuple[int, int]], *orders: IntervalOrder) -> list[list[int]]:
    """One row list per order: bit j of row i is set iff keys[i] <= keys[j].

    The four dominance orders AND one mask per endpoint. Strong sets bit i
    and the keys whose lo exceeds keys[i]'s hi, so its keys must be distinct.
    """
    le_lo, ge_lo, le_hi, ge_hi = _endpoint_masks(keys)
    sides = {IntervalOrder.WEAK: (ge_lo, ge_hi), IntervalOrder.DUAL_WEAK: (le_lo, le_hi),
             IntervalOrder.SUBSET: (le_lo, ge_hi), IntervalOrder.SUPERSET: (ge_lo, le_hi)}
    out = []
    for order in orders:
        if order is IntervalOrder.STRONG:
            out.append([1 << i | ge_lo[hi + 1] for i, (_, hi) in enumerate(keys)])
        else:
            lo_masks, hi_masks = sides[order]
            out.append([lo_masks[lo] & hi_masks[hi] for lo, hi in keys])
    return out


def _ground_keys(ground: tuple[IntInterval, ...]) -> list[tuple[int, int]]:
    # Each endpoint replaced by its position among the ground's distinct
    # endpoint values. The orders compare endpoints only by < and <=, so the
    # rows do not change, and the masks stay as long as the ground.
    values = sorted({v for x in ground for v in (x.lo, x.hi)})
    position = {v: r for r, v in enumerate(values)}
    return [(position[x.lo], position[x.hi]) for x in ground]


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
        # Bit j of rows[i] is set iff ground[i] <= ground[j] in the order.
        ground = tuple(ground)
        order = IntervalOrder(order)
        if len(set(ground)) != len(ground):
            raise ValueError("ground intervals must be distinct")
        return cls(ground, _endpoint_rows(_ground_keys(ground), order)[0])

    @classmethod
    def from_relation(cls, ground, generators) -> "OrderRelationTable":
        """Close generator index pairs over `ground`, as Poset.from_relation
        does over 0..n-1 (CycleError for a cycle, IndexError out of range)."""
        ground = tuple(ground)
        return cls(ground, Poset.from_relation(len(ground), generators).rows)

    @classmethod
    def from_strict_pairs(cls, ground, pairs) -> "OrderRelationTable":
        ground = tuple(ground)
        n = len(ground)
        rows = [1 << i for i in range(n)]
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise IndexError(f"pair ({a}, {b}) out of range for {n} elements")
            rows[a] |= 1 << b
        return cls(ground, tuple(rows))

    def strict_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i in range(self.n) for j in _bits(self.strict_rows[i]))

    def to_poset(self) -> Poset:
        return self


def interval_poset(ground, order: IntervalOrder | str) -> Poset:
    """The poset a given interval order induces on a ground set."""
    return OrderRelationTable.from_order(ground, order)


def _comparability(t1: OrderRelationTable, t2: OrderRelationTable):
    # Per element i, the masks of elements comparable to i (i included).
    if t1.ground != t2.ground:
        raise GroundMismatch("order tables have different ground sets")
    return [(t1.rows[i] | t1.down_rows[i], t2.rows[i] | t2.down_rows[i])
            for i in range(t1.n)]


def are_conjugate(t1: OrderRelationTable, t2: OrderRelationTable) -> bool:
    """Every distinct pair comparable in exactly one of the two orders."""
    full = (1 << t1.n) - 1
    return all(c1 ^ c2 == full ^ 1 << i
               for i, (c1, c2) in enumerate(_comparability(t1, t2)))


def are_pseudo_conjugate(t1: OrderRelationTable, t2: OrderRelationTable) -> bool:
    """Every distinct pair comparable in at least one of the two orders.

    Weaker than conjugacy: pairs may be comparable in both orders.
    """
    full = (1 << t1.n) - 1
    return all(c1 | c2 == full for c1, c2 in _comparability(t1, t2))


def find_conjugates_of_strong(lo_min: int, hi_max: int, limit: int | None = None,
                              *, max_ground: int | None = 12,
                              ) -> list[OrderRelationTable]:
    """All conjugates of the strong order on the full interval ground set.

    A conjugate must make exactly the strong-incomparable pairs comparable,
    so the search enumerates transitive orientations of the complement of
    the strong comparability graph: orient one undirected pair at a time,
    propagating forced orientations (a<b and b<c force a<c; if a and c are
    not an orientable pair the branch dies). Results arrive in a fixed
    deterministic order; `limit` (ValueError if negative) stops the search
    early, and grounds larger than `max_ground` raise BudgetExceeded.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    ground = tuple(all_intervals(lo_min, hi_max))
    m = len(ground)
    if max_ground is not None and m > max_ground:
        raise BudgetExceeded(
            f"ground of {m} intervals exceeds the search budget of {max_ground}")
    return _orientations(ground, limit)


def _orientations(ground: tuple[IntInterval, ...],
                  limit: int | None) -> list[OrderRelationTable]:
    # Transitive orientations of the overlap graph of `ground`, by
    # backtracking over bitset rows. Pairs (a, b), a < b, are decided in
    # lexicographic order, trying a < b before b < a.
    m = len(ground)
    keys = _ground_keys(ground)
    le_lo, _, _, ge_hi = _endpoint_masks(keys)
    overlap = [le_lo[hi] & ge_hi[lo] & ~(1 << i) for i, (lo, hi) in enumerate(keys)]
    solutions: list[OrderRelationTable] = []

    def orient(above: list[int], a: int, b: int) -> list[int] | None:
        # The rows with a < b decided for an undecided pair (bit y of
        # above[x]: x < y has been decided). The relation is transitive, so
        # the closure of the new pair is the product of the down-set of a and
        # the up-set of b. None if a new pair does not overlap; bits enter a
        # row only after this test, so above[c] stays inside overlap[c].
        up = above[b] | 1 << b
        out = above.copy()
        for c in range(m):
            if c == a or above[c] >> a & 1:
                if up & ~overlap[c]:
                    return None
                out[c] |= up
        return out

    def dfs(above: list[int], start: int) -> None:
        if limit is not None and len(solutions) >= limit:
            return
        pair = next(((a, b) for a in range(start, m)
                     for b in _bits(overlap[a] & ~above[a] & -2 << a)
                     if not above[b] >> a & 1), None)
        if pair is None:
            solutions.append(OrderRelationTable(
                ground, [above[x] | 1 << x for x in range(m)]))
            return
        a, b = pair
        for u, v in ((a, b), (b, a)):
            child = orient(above, u, v)
            if child is not None:
                dfs(child, a)

    dfs([0] * m, 0)
    return solutions


def group_conjugates_by_isomorphism(tables) -> list[list[OrderRelationTable]]:
    """Group order tables by the isomorphism class of their poset."""
    groups: dict[tuple, list[OrderRelationTable]] = {}
    for t in tables:
        groups.setdefault(t.canonical_form(), []).append(t)
    return list(groups.values())
