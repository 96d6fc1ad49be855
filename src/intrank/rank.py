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

from .errors import CapExceeded, RangeError, TooSmall, UnboundedError
from .intervals import IntInterval, IntervalOrder, _endpoint_rows
from .poset import Poset, _bits


@dataclass(frozen=True)
class RankAssignment:
    """An interval per element of a poset, with the declared endpoint bound."""

    poset: Poset
    ranks: tuple[IntInterval, ...]
    bound: int

    def __getitem__(self, element: int) -> IntInterval:
        return self.ranks[element]


def _require_rankable(p: Poset) -> None:
    if p.n < 2:
        raise TooSmall("rank operators need at least two elements")
    if not p.is_bounded():
        raise UnboundedError("rank operators need a bottom and a top element")


def _endpoints(p: Poset, conjugate: bool) -> list[tuple[int, int]]:
    # (lo, hi) of each element's standard or conjugate rank.
    _require_rankable(p)
    h = p.height()
    up, down = p.up_heights, p.down_heights
    if conjugate:
        return [(up[a] - 1, h + down[a] - 2) for a in range(p.n)]
    return [(up[a] - 1, h - down[a]) for a in range(p.n)]


def standard_rank(p: Poset) -> RankAssignment:
    """Assign [up_heights[a]-1, height - down_heights[a]] to each element."""
    ranks = tuple(IntInterval(lo, hi) for lo, hi in _endpoints(p, False))
    return RankAssignment(p, ranks, p.height() - 1)


def conjugate_rank(p: Poset) -> RankAssignment:
    """Assign [up_heights[a]-1, height + down_heights[a] - 2] to each element."""
    ranks = tuple(IntInterval(lo, hi) for lo, hi in _endpoints(p, True))
    return RankAssignment(p, ranks, 2 * (p.height() - 1))


def _strict_pairs(p: Poset):
    for a in range(p.n):
        for b in _bits(p.strict_rows[a]):
            yield a, b


def classify_rank_function(f: RankAssignment) -> IntervalOrder | None:
    """Which interval order an assignment is strictly monotone into.

    Checks the two endpoint maps over every related pair: both strictly
    antitone means dual-weak, both strictly isotone means weak, lo antitone
    with hi isotone means subset, the reverse means superset; anything else
    returns None. With no related pairs all four hold vacuously and the
    first match (dual-weak) is reported.
    """
    pairs = list(_strict_pairs(f.poset))
    r = f.ranks
    lo_iso = all(r[a].lo < r[b].lo for a, b in pairs)
    lo_anti = all(r[a].lo > r[b].lo for a, b in pairs)
    hi_iso = all(r[a].hi < r[b].hi for a, b in pairs)
    hi_anti = all(r[a].hi > r[b].hi for a, b in pairs)
    if lo_anti and hi_anti:
        return IntervalOrder.DUAL_WEAK
    if lo_iso and hi_iso:
        return IntervalOrder.WEAK
    if lo_anti and hi_iso:
        return IntervalOrder.SUBSET
    if lo_iso and hi_anti:
        return IntervalOrder.SUPERSET
    return None


def is_interval_rank_function(f: RankAssignment, order: IntervalOrder | str) -> bool:
    """True iff a < b always maps to f(a) strictly below f(b) in the order."""
    order = IntervalOrder(order)
    return all(order.lt(f.ranks[a], f.ranks[b]) for a, b in _strict_pairs(f.poset))


@dataclass(frozen=True)
class RankPoset:
    """Homomorphic image of a poset under an interval rank operator.

    `keys` lists the distinct (lo, hi) rank values in a fixed linear
    extension of the image order (image bottom first); `blocks[i]` are the
    source elements whose rank is keys[i]. `conjugate` picks the image
    order: containment for conjugate ranks, dual-weak otherwise.
    `intervals` and `order` are built from the keys when first read, and
    the order is validated then.
    """

    keys: tuple[tuple[int, int], ...]
    blocks: tuple[tuple[int, ...], ...]
    conjugate: bool = False

    @cached_property
    def intervals(self) -> tuple[IntInterval, ...]:
        return tuple(IntInterval(lo, hi) for lo, hi in self.keys)

    @cached_property
    def order(self) -> Poset:
        # Rank endpoints are at most 2n, so they index the endpoint masks directly.
        [rows] = _endpoint_rows(self.keys, IntervalOrder.SUBSET if self.conjugate
                                else IntervalOrder.DUAL_WEAK)
        return Poset(rows, tuple(str(iv) for iv in self.intervals))

    def __len__(self) -> int:
        return len(self.blocks)

    def is_chain(self) -> bool:
        return self.order.is_chain()

    def block_index(self, element: int) -> int:
        for i, blk in enumerate(self.blocks):
            if element in blk:
                return i
        raise LookupError(f"element {element} not in any block")


def _group(values, key=None):
    # The distinct values, sorted descending by `key`, and the elements
    # holding each, in element order.
    groups: dict = {}
    for a, value in enumerate(values):
        groups.setdefault(value, []).append(a)
    distinct = tuple(sorted(groups, key=key, reverse=True))
    return distinct, tuple(tuple(groups[value]) for value in distinct)


def _image(p: Poset, conjugate: bool) -> RankPoset:
    # Conjugate ranks are listed by (-lo, hi), standard ranks in descending
    # (lo, hi) order. The order is read here so that it is validated as the
    # image is built.
    key = (lambda k: (k[0], -k[1])) if conjugate else None
    image = RankPoset(*_group(_endpoints(p, conjugate), key), conjugate)
    image.order
    return image


def rank_image(p: Poset) -> RankPoset:
    """Collapse elements sharing a standard rank; order images dual-weakly.

    x <= y iff y.lo <= x.lo and y.hi <= x.hi. The interval list is sorted
    descending by (lo, hi), a linear extension of the image order that
    starts at the image of the bottom element.
    """
    return _image(p, False)


def conjugate_image(p: Poset) -> RankPoset:
    """Collapse elements sharing a conjugate rank; order images by containment.

    x <= y iff x is a subset of y (y.lo <= x.lo and x.hi <= y.hi). The
    interval list is sorted by (-lo, hi), a linear extension of the image
    order that starts at the image of the bottom element.
    """
    return _image(p, True)


def rank_all(p: Poset) -> Poset:
    """Extend p's order by comparing all standard ranks, collapsing nothing.

    a < b in the result iff the standard rank of a strictly dominates the
    standard rank of b in both endpoints-at-least senses (dual-weak).
    Labels are preserved; the result always extends the original order.
    """
    up, down = _endpoint_rows(_endpoints(p, False), IntervalOrder.DUAL_WEAK,
                              IntervalOrder.WEAK)
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


def _key_chain(keys: tuple[tuple[int, int], ...]) -> bool:
    # Distinct keys listed descending form a chain iff no hi rises.
    return all(a[1] >= b[1] for a, b in zip(keys, keys[1:]))


def iterate_to_chain(p: Poset) -> IterationTrace:
    """Apply rank_image until the image is a chain.

    A chain input takes zero iterations. The first stage is rank_image(p).
    Each later stage ranks the distinct (lo, hi) keys of the one before,
    a partial order of dimension at most 2: a longest-increasing-subsequence
    sweep gives its chain heights and the keys' hi ends the chain test. It
    is RankPoset(keys, blocks), so its `intervals` and `order` are built,
    and the order validated, only when a caller first reads them. Original
    elements are tracked through block membership, and the levels of the
    final chain (top first) give the induced total preorder on p. The
    iteration count is capped at |p|; hitting the cap raises CapExceeded.
    """
    _require_rankable(p)
    if p.is_chain():
        # A chain's down heights are 1..n from the bottom up.
        return IterationTrace(p, (), 0, _group(p.down_heights)[1])
    stage = rank_image(p)
    stages = [stage]
    keys = stage.keys
    block_map = list(range(p.n))  # each element of p by its index in the stage's source
    while True:
        owner = {e: bi for bi, blk in enumerate(stage.blocks) for e in blk}
        block_map = [owner[x] for x in block_map]
        if _key_chain(keys):
            break
        if len(stages) >= p.n:
            raise CapExceeded(f"no chain after {p.n} iterations")
        up, down = _key_heights(keys)
        h = max(up)
        keys, blocks = _group([(u - 1, h - d) for u, d in zip(up, down)])
        stage = RankPoset(keys, blocks)
        stages.append(stage)
    # The final keys list the chain bottom first; descending, top first.
    return IterationTrace(p, tuple(stages), len(stages), _group(block_map)[1])


def total_preorder(p: Poset) -> tuple[tuple[int, ...], ...]:
    """Blocks of the total preorder induced by rank iteration, top first."""
    return iterate_to_chain(p).preorder_levels


def average_rank_width(p: Poset) -> Fraction:
    """Mean standard-rank interval width, exact."""
    return Fraction(sum(hi - lo for lo, hi in _endpoints(p, False)), p.n)
