"""Interval-valued rank functions and the rank-operator iteration.

The standard rank of an element a in a bounded poset of height h is the
interval [up_heights[a] - 1, h - down_heights[a]]: how far a can sit from
the top along chains through it. It collapses to a point exactly on
elements of maximum-size chains. The conjugate rank keeps the lower end and
stretches the upper end instead: [up_heights[a] - 1, h + down_heights[a] - 2],
so on a 3-chain, bottom first, the conjugate ranks are [2,2], [1,3], [0,4].
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import poset
from .errors import CapExceeded, RangeError, TooSmall, UnboundedError
from .intervals import _DIRECTIONS, IntInterval, IntervalOrder, OrderRelationTable, _endpoint_rows
from .poset import Poset


@dataclass(frozen=True)
class RankAssignment:
    """An interval per element of a poset, with the declared endpoint bound."""

    poset: Poset
    ranks: tuple[IntInterval, ...]
    bound: int

    def __post_init__(self):
        if len(self.ranks) != self.poset.n:
            raise ValueError(f"need {self.poset.n} ranks, one per element, not {len(self.ranks)}")

    def __getitem__(self, element: int) -> IntInterval:
        return self.ranks[element]


def _require_rankable(p: Poset) -> None:
    if p.n < 2:
        raise TooSmall("rank operators need at least two elements")
    if not p.is_bounded():
        raise UnboundedError("rank operators need a bottom and a top element")


def _ranks(up, down) -> list[tuple[int, int]]:
    # (lo, hi) of each element's standard rank from its up and down chain
    # heights; max(up) is the height.
    h = max(up)
    return [(u - 1, h - d) for u, d in zip(up, down)]


def _endpoints(p: Poset) -> list[tuple[int, int]]:
    _require_rankable(p)
    return _ranks(p.up_heights, p.down_heights)


def standard_rank(p: Poset) -> RankAssignment:
    """Assign [up_heights[a]-1, height - down_heights[a]] to each element."""
    ranks = tuple(IntInterval(lo, hi) for lo, hi in _endpoints(p))
    return RankAssignment(p, ranks, p.height() - 1)


def conjugate_rank(p: Poset) -> RankAssignment:
    """The standard rank reflected by phi: [up_heights[a]-1, height + down_heights[a] - 2]."""
    h = p.height()
    return RankAssignment(p, tuple(phi(x, h) for x in standard_rank(p).ranks), 2 * (h - 1))


def classify_rank_function(f: RankAssignment) -> IntervalOrder | None:
    """Which interval order an assignment is strictly monotone into.

    Checks the two endpoint maps over every related pair against each
    order's endpoint directions, in turn: both strictly antitone means
    dual-weak, both strictly isotone means weak, lo antitone with hi
    isotone means subset, the reverse means superset; anything else
    returns None. With no related pairs all four hold vacuously and the
    first match (dual-weak) is reported.
    """
    pairs = f.poset.strict_pairs()
    r = f.ranks
    return next((order for order, (d_lo, d_hi) in _DIRECTIONS.items()
                 if all(d_lo * (r[b].lo - r[a].lo) > 0 and d_hi * (r[b].hi - r[a].hi) > 0
                        for a, b in pairs)), None)


def is_interval_rank_function(f: RankAssignment, order: IntervalOrder | str) -> bool:
    """True iff a < b always maps to f(a) strictly below f(b) in the order."""
    order = IntervalOrder(order)
    return all(order.lt(f.ranks[a], f.ranks[b]) for a, b in f.poset.strict_pairs())


@dataclass(frozen=True)
class RankPoset:
    """Homomorphic image of a poset under an interval rank operator.

    `keys` lists the distinct (lo, hi) rank values in a fixed linear
    extension of the image order (image bottom first); `blocks[i]` are the
    source elements whose rank is keys[i]. `relation` is the image order:
    dual-weak for standard ranks, containment (SUBSET) for conjugate ranks.
    The chain test reads the keys alone; the order's bitset rows are built
    from the keys and checked as a partial order when first needed, and
    `intervals` and `order`, an OrderRelationTable over the intervals on
    those rows, when first read.
    """

    keys: tuple[tuple[int, int], ...]
    blocks: tuple[tuple[int, ...], ...]
    relation: IntervalOrder = IntervalOrder.DUAL_WEAK

    def __post_init__(self):
        if len(self.keys) != len(self.blocks):
            raise ValueError(f"{len(self.keys)} keys but {len(self.blocks)} blocks")

    @cached_property
    def intervals(self) -> tuple[IntInterval, ...]:
        return tuple(IntInterval(lo, hi) for lo, hi in self.keys)

    @cached_property
    def _rows(self) -> list[int]:
        # Rank endpoints are at most 2n, so they index the endpoint masks
        # directly. The check is called through the poset module, so that
        # replacing it there replaces it here too.
        rows = _endpoint_rows(self.keys, self.relation)
        poset.check_partial_order(rows, len(rows))
        return rows

    @cached_property
    def order(self) -> Poset:
        return OrderRelationTable(self.intervals, self._rows, _checked=True)

    def __len__(self) -> int:
        return len(self.blocks)

    def is_chain(self) -> bool:
        # Listed bottom first, no lo steps against its direction, so the
        # keys form a chain iff no hi steps against its own either.
        his = [hi for _, hi in self.keys]
        return his == sorted(his, reverse=_DIRECTIONS[self.relation][1] < 0)

    def block_index(self, element: int) -> int:
        for i, blk in enumerate(self.blocks):
            if element in blk:
                return i
        raise LookupError(f"element {element} not in any block")


def _group(values):
    # The distinct (lo, hi) values listed descending, a linear extension of
    # the dual-weak order that starts at its bottom, and the elements
    # holding each, in element order.
    groups: dict = {}
    for a, value in enumerate(values):
        groups.setdefault(value, []).append(a)
    distinct = sorted(groups, reverse=True)
    return tuple(distinct), tuple(tuple(groups[value]) for value in distinct)


def _checked(image: RankPoset) -> RankPoset:
    # The image order's rows are checked here, as the image is built; its
    # table is built only when `order` is first read.
    image._rows
    return image


def rank_image(p: Poset) -> RankPoset:
    """Collapse elements sharing a standard rank; order images dual-weakly.

    x <= y iff y.lo <= x.lo and y.hi <= x.hi. The interval list is sorted
    descending by (lo, hi), a linear extension of the image order that
    starts at the image of the bottom element.
    """
    return _checked(RankPoset(*_group(_endpoints(p))))


def conjugate_image(p: Poset) -> RankPoset:
    """Collapse elements sharing a conjugate rank; order images by containment.

    x <= y iff x is a subset of y (y.lo <= x.lo and x.hi <= y.hi). This is
    the standard image with its keys reflected by phi and its blocks kept.
    An order isomorphism keeps a linear extension, so the interval list is
    sorted by (-lo, hi) and starts at the image of the bottom element.
    """
    standard, blocks = _group(_endpoints(p))
    h = p.height()
    keys = tuple((x.lo, x.hi) for x in (phi(IntInterval(*key), h) for key in standard))
    return _checked(RankPoset(keys, blocks, IntervalOrder.SUBSET))


def rank_all(p: Poset) -> Poset:
    """Extend p's order by comparing all standard ranks, collapsing nothing.

    a < b in the result iff the standard rank of a strictly dominates the
    standard rank of b in both endpoints-at-least senses (dual-weak).
    Labels are preserved; the result always extends the original order.
    """
    keys = _endpoints(p)
    up = _endpoint_rows(keys, IntervalOrder.DUAL_WEAK)
    down = _endpoint_rows(keys, IntervalOrder.WEAK)
    # Equal ranks relate both ways, so up & down is exactly the equal ranks.
    return Poset([up[a] & ~down[a] | 1 << a for a in range(p.n)], p.labels)


def phi(x: IntInterval, h: int) -> IntInterval:
    """Reflect a standard-rank interval into conjugate-rank coordinates.

    [lo, hi] maps to [lo, 2(h-1) - hi] for a poset of height h. Raises
    RangeError when the reflected upper end falls below lo.
    """
    top = 2 * (h - 1) - x.hi
    if top < x.lo:
        raise RangeError(f"phi({x}, {h}) would produce the empty interval")
    return IntInterval(x.lo, top)


@dataclass(frozen=True)
class IterationTrace:
    """The stages of repeatedly applying rank_image until a chain appears."""

    poset: Poset
    stages: tuple[RankPoset, ...]
    iterations_to_chain: int
    preorder_levels: tuple[tuple[int, ...], ...]


def _key_heights(keys: tuple[tuple[int, int], ...]) -> tuple[list[int], list[int]]:
    # Up and down chain heights of distinct (lo, hi) keys, listed in
    # descending order, under the dual-weak order. Read ascending, the keys
    # above x come before it, so up[x] is one more than the largest up among
    # earlier keys with hi <= x.hi: Fredman's longest-increasing-subsequence
    # sweep, where tails[j] is the least hi read so far at height j + 1 and
    # is nondecreasing in j. Down heights are the mirror pass: read
    # descending, over -hi.
    heights = []
    for his in ([hi for _, hi in reversed(keys)], [-hi for _, hi in keys]):
        tails: list[int] = []
        out = []
        for hi in his:
            j = bisect_right(tails, hi)
            if j == len(tails):
                tails.append(hi)
            else:
                tails[j] = hi
            out.append(j + 1)
        heights.append(out)
    return heights[0][::-1], heights[1]


def iterate_to_chain(p: Poset) -> IterationTrace:
    """Apply rank_image until the image is a chain.

    A chain input takes zero iterations. The first stage is rank_image(p).
    Each later stage ranks the distinct (lo, hi) keys of the one before,
    a partial order of dimension at most 2: a longest-increasing-subsequence
    sweep gives its chain heights. It is RankPoset(keys, blocks), listed
    as rank_image lists its keys. Every stage tests for a chain on its keys
    alone, so a later stage's order rows are built and checked, and its
    `intervals` and `order` built, only when a caller first reads them.
    Once the chain is reached, its levels, top first, are composed back
    through each earlier stage's blocks to the elements of p, once, and
    each level is sorted: the induced total preorder on p. The iteration
    count is capped at |p|; hitting the cap raises CapExceeded.
    """
    _require_rankable(p)
    if p.is_chain():
        # A chain's down heights are 1..n from the bottom up.
        top_first = sorted(range(p.n), key=p.down_heights.__getitem__, reverse=True)
        return IterationTrace(p, (), 0, tuple((a,) for a in top_first))
    stages = [rank_image(p)]
    while not stages[-1].is_chain():
        if len(stages) >= p.n:
            raise CapExceeded(f"no chain after {p.n} iterations")
        stages.append(RankPoset(*_group(_ranks(*_key_heights(stages[-1].keys)))))
    # The final keys list the chain bottom first, so its blocks reversed are
    # the levels top first; each stage's blocks name keys of the stage
    # before, and the first stage's name elements of p.
    levels = stages[-1].blocks[::-1]
    for stage in stages[-2::-1]:
        blocks = stage.blocks
        levels = [[e for b in level for e in blocks[b]] for level in levels]
    return IterationTrace(p, tuple(stages), len(stages),
                          tuple(tuple(sorted(level)) for level in levels))


def total_preorder(p: Poset) -> tuple[tuple[int, ...], ...]:
    """Blocks of the total preorder induced by rank iteration, top first."""
    return iterate_to_chain(p).preorder_levels


def average_rank_width(p: Poset) -> Fraction:
    """Mean standard-rank interval width, exact."""
    return Fraction(sum(hi - lo for lo, hi in _endpoints(p)), p.n)
