"""Integer intervals, the order relations over them, and conjugate search."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import or_

from .errors import BudgetExceeded, GroundMismatch
from .poset import Poset, _close, _pair_rows

# find_conjugates_of_strong's ground budget: endpoint span 3 has 10 intervals, 4 has 15.
CONJ_MAX_GROUND = 12


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
    return IntervalOrder.WEAK.leq(x, y)


def subset(x: IntInterval, y: IntInterval) -> bool:
    """x is contained in y."""
    return IntervalOrder.SUBSET.leq(x, y)


class IntervalOrder(Enum):
    STRONG = "strong"
    WEAK = "weak"
    DUAL_WEAK = "dual-weak"
    SUBSET = "subset"
    SUPERSET = "superset"

    def leq(self, x: IntInterval, y: IntInterval) -> bool:
        if self is IntervalOrder.STRONG:
            return leq_strong(x, y)
        d_lo, d_hi = _DIRECTIONS[self]
        return d_lo * (y.lo - x.lo) >= 0 and d_hi * (y.hi - x.hi) >= 0

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


# Each dominance order as the directions of its lo and hi endpoints: for
# x <= y, +1 means y's endpoint is at least x's, -1 at most. Strong has none.
_DIRECTIONS = {IntervalOrder.DUAL_WEAK: (-1, -1), IntervalOrder.WEAK: (1, 1),
               IntervalOrder.SUBSET: (-1, 1), IntervalOrder.SUPERSET: (1, -1)}


def _endpoint_rows(keys: list[tuple[int, int]], order: IntervalOrder) -> list[int]:
    """Bit j of row i is set iff keys[i] <= keys[j] in the order.

    A dominance order ANDs the masks of its two endpoint directions. Strong
    sets bit i and the keys whose lo exceeds keys[i]'s hi, so its keys must
    be distinct.
    """
    le_lo, ge_lo, le_hi, ge_hi = _endpoint_masks(keys)
    if order is IntervalOrder.STRONG:
        return [1 << i | ge_lo[hi + 1] for i, (_, hi) in enumerate(keys)]
    d_lo, d_hi = _DIRECTIONS[order]
    lo_masks, hi_masks = ge_lo if d_lo > 0 else le_lo, ge_hi if d_hi > 0 else le_hi
    return [lo_masks[lo] & hi_masks[hi] for lo, hi in keys]


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
    set iff ground[i] <= ground[j]. The constructor checks the poset
    axioms, unless the package passes rows it has checked already, and its
    distinct-label check rejects a repeated interval.
    """

    def __init__(self, ground, rows, *, _checked: bool = False):
        self.ground = tuple(ground)
        super().__init__(rows, self.ground, _checked=_checked)

    @classmethod
    def from_order(cls, ground, order: IntervalOrder | str) -> "OrderRelationTable":
        """The table of an interval order over distinct ground intervals:
        bit j of rows[i] is set iff ground[i] <= ground[j] in the order."""
        ground = tuple(ground)
        return cls(ground, _endpoint_rows(_ground_keys(ground), IntervalOrder(order)))

    @classmethod
    def from_relation(cls, ground, generators) -> "OrderRelationTable":
        """Close generator index pairs over `ground`, as Poset.from_relation
        does over 0..n-1 (CycleError for a cycle, IndexError out of range)."""
        ground = tuple(ground)
        return cls(ground, _close(_pair_rows(len(ground), generators), len(ground)), _checked=True)

    @classmethod
    def from_strict_pairs(cls, ground, pairs) -> "OrderRelationTable":
        ground = tuple(ground)
        return cls(ground, [r | 1 << i for i, r in enumerate(_pair_rows(len(ground), pairs))])

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
                              *, max_ground: int | None = CONJ_MAX_GROUND,
                              ) -> list[OrderRelationTable]:
    """All conjugates of the strong order on the full interval ground set.

    A conjugate must make exactly the strong-incomparable pairs comparable,
    so the search enumerates transitive orientations of the complement of
    the strong comparability graph, the overlap graph. It holds the decided
    pairs as an m x m bit matrix in one int and orients one overlapping
    pair a < b at a time; one multiply adds its closure, every pair from
    a's down-set to b's up-set, and one AND with the non-overlapping pairs
    kills the branch. The reverse of a solution is a solution, so the
    search visits only the half of the tree where the first pair is a < b
    and lists the reversed solutions, in reverse, as the other half.
    Results arrive in a fixed deterministic order;
    `limit` (ValueError if negative) stops the search early, and grounds
    larger than `max_ground` raise BudgetExceeded.
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
    # backtracking over two m x m bit matrices held as ints, row x in bits
    # x*m .. x*m+m-1: bit y of row x of `above` is set once x < y is
    # decided, and `below` is its transpose. Pairs (a, b), a < b, are
    # decided in lexicographic order, which is bit order, trying a < b
    # before b < a, so solutions arrive in lexicographic order of their
    # pair vectors.
    m = len(ground)
    keys = _ground_keys(ground)
    le_lo, _, _, ge_hi = _endpoint_masks(keys)
    overlap = [le_lo[hi] & ge_hi[lo] & ~(1 << i) for i, (lo, hi) in enumerate(keys)]
    row, col = (1 << m) - 1, sum(1 << x * m for x in range(m))
    apart = sum((row & ~r) << x * m for x, r in enumerate(overlap))
    later = sum((r & -2 << x) << x * m for x, r in enumerate(overlap))
    solutions: list[OrderRelationTable] = []
    mirrors: list[list[int]] = []

    def dfs(above: int, below: int) -> None:
        if limit is not None and len(solutions) >= limit:
            return
        open_ = later & ~(above | below)
        if not open_:
            solutions.append(OrderRelationTable(
                ground, [above >> x * m & row | 1 << x for x in range(m)]))
            mirrors.append([below >> x * m & row | 1 << x for x in range(m)])
            return
        a, b = divmod((open_ & -open_).bit_length() - 1, m)
        for u, v in ((a, b), (b, a)):
            # Deciding u < v adds the product of u's down-set and v's
            # up-set, the whole transitive closure of the new pair: v's
            # up-set, an m-bit row, times u's down-set as a column (one bit
            # per row) lands in each row of that down-set without carries,
            # and `below` gains the transpose. The branch dies if a new pair
            # does not overlap (`apart` holds the diagonal too, so a cycle
            # dies); bits enter only after this test.
            new = (above >> v * m & row | 1 << v) * (above >> u & col | 1 << u * m)
            if not new & apart:
                down = below >> u * m & row | 1 << u
                dfs(above | new, below | down * (below >> v & col | 1 << v * m))

    if not later:
        dfs(0, 0)
        return solutions
    # The reverse of a transitive orientation is one too, so only the first
    # pair's a < b subtree is searched. Reversing complements a solution's
    # pair vector, which reverses their order: the b < a half is the
    # mirrors, each leaf's `below` rows, in reverse.
    a, b = divmod((later & -later).bit_length() - 1, m)
    dfs(1 << a * m + b, 1 << b * m + a)
    room = None if limit is None else limit - len(solutions)
    return solutions + [OrderRelationTable(ground, r) for r in mirrors[::-1][:room]]


def group_conjugates_by_isomorphism(tables) -> list[list[OrderRelationTable]]:
    """Group order tables by the isomorphism class of their poset."""
    groups: dict[tuple, list[OrderRelationTable]] = {}
    for t in tables:
        groups.setdefault(t.canonical_form(), []).append(t)
    return list(groups.values())
