"""Exhaustive and random poset generation.

Random models draw from stdlib ``random.Random`` (Mersenne Twister), whose
seeded streams are stable across CPython versions; a corpus derives the
seed of its i-th poset as ``seed + i`` so corpora are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_

import random

from .errors import BudgetExceeded
from .poset import Poset, _bits

ENUM_MAX_FREE = 8

MODELS = ("exhaustive", "random-graph", "random-kdim")


@dataclass(frozen=True)
class GenConfig:
    """Parameters for one generated poset."""

    model: str
    n: int
    p: float = 0.5
    k: int = 3
    seed: int = 0
    add_bounds: bool = True

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be positive")


def _order_ideals(q: Poset) -> list[int]:
    # Bottom up over a linear extension (down-sets grow along <): e joins
    # each ideal already built that holds its strict down-set and, if e
    # has a twin of lower index, the nearest one. So an ideal holds each
    # class of twins as a prefix.
    below = q.strict_down_rows
    need = list(below)
    for t in q._twin_classes():
        for e in _bits(t & (t - 1)):
            need[e] |= 1 << (t & ((1 << e) - 1)).bit_length() - 1
    ideals = [0]
    for e in sorted(range(q.n), key=lambda e: below[e].bit_count()):
        ideals += [m | 1 << e for m in ideals if not need[e] & ~m]
    return ideals


def _extend_with_maximal(q: Poset, ideal: int, height: int) -> Poset:
    # Append a new maximal element above exactly `ideal`, of down-height
    # `height`. The old elements keep their down-sets, so the child inherits
    # q's down-rows and down-heights, set as attributes: reading
    # vars(child) would give every child its own instance dict.
    new = 1 << q.n
    rows = [r | new if ideal >> e & 1 else r for e, r in enumerate(q.rows)]
    rows.append(new)
    child = Poset(rows)
    child.down_rows = q.down_rows + (ideal | new,)
    child.down_heights = q.down_heights + (height,)
    return child


def _at_least(values, members, size: int) -> list[int]:
    # table[k] masks the members e with values[e] >= k, for k < size.
    table = [0] * size
    for e in members:
        for k in range(values[e] + 1):
            table[k] |= 1 << e
    return table


def _ideal_orbits(q: Poset) -> list[int]:
    # One order ideal of q per orbit of Aut q. The twin-prefix ideals stand
    # one for each orbit of the swaps of twins; the first of each is kept,
    # and its orbit is closed under the automorphisms the canonical search
    # found, each image put back in twin-prefix form.
    q.canonical_form()
    autos = q._canonical[2]
    ideals = _order_ideals(q)
    if not autos:
        return ideals
    prefixes = [(t, list(accumulate((1 << e for e in _bits(t)), or_, initial=0)))
                for t in q._twin_classes() if t & (t - 1)]
    kept, seen = [], set()
    for m in ideals:
        if m in seen:
            continue
        kept.append(m)
        seen.add(m)
        stack = [m]
        while stack:
            ideal = stack.pop()
            for g in autos:
                image = 0
                for x in _bits(ideal):
                    image |= 1 << g[x]
                for t, prefix in prefixes:
                    image = image & ~t | prefix[(image & t).bit_count()]
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
    return kept


def _augment(q: Poset, n: int):
    # Depth-first canonical augmentation (McKay, 1998): yield q if it has n
    # elements, else grow to n elements the children of q, one per orbit of
    # its order ideals, whose new maximal element v is a canonical deletion.
    # The canonical deletions are the maximal elements with the largest
    # down-set and, among those, the largest down-height; if that leaves
    # more than v and its twins (which share v's orbit), they are the orbit
    # of the one latest in the child's canonical order. Per parent,
    # by_height[k] masks the elements of down-height at least k, so v's
    # down-height is the first level its ideal misses, and by_size[k] masks
    # the maximal elements whose down-set size is at least k.
    if q.n == n:
        yield q
        return
    heights, below, m = q.down_heights, q.strict_down_rows, q.n
    tops = [e for e in range(m) if q.rows[e] == 1 << e]
    by_size = _at_least([d.bit_count() for d in q.down_rows], tops, m + 3)
    by_height = _at_least(heights, range(m), max(heights) + 3)
    for ideal in _ideal_orbits(q):
        height = 1
        while ideal & by_height[height]:
            height += 1
        size = ideal.bit_count() + 1
        tied = by_size[size] & ~ideal
        if tied:
            if tied & (by_size[size + 1] | by_height[height + 1]):
                continue
            tied &= by_height[height]
        child = _extend_with_maximal(q, ideal, height)
        if tied and any(below[e] != ideal for e in _bits(tied)):
            child.canonical_form()
            last = max([*_bits(tied), m], key=child._canonical[1].index)
            if not any(o >> last & 1 and o >> m & 1 for o in child._orbits()):
                continue
        yield from _augment(child, n)


def enumerate_posets(n: int) -> list[Poset]:
    """All posets on n elements, one representative per isomorphism class.

    Generated depth-first by canonical augmentation (McKay, *Isomorph-free
    exhaustive generation*, 1998): every poset arises from deleting a
    maximal element, so extending each (n-1)-element representative by a
    new maximal element v above each order ideal reaches every class. Two
    rules make each class arise once:

    - only one ideal per orbit of the representative's automorphism group
      is taken. The orbits come from the automorphisms its canonical
      search finds and the swaps of twins (elements with equal strict up-
      and down-sets), so only ideals holding a prefix, by index, of each
      twin class are built;
    - a child is kept iff v is a canonical deletion: among the maximal
      elements whose down-set is largest, then whose down-height is
      largest, v lies in the orbit of the one that comes last in the
      child's canonical order. Most children are decided before they are
      built, by two mask tests against two tables of the parent, one of
      its maximal elements by down-set size and one of all its elements
      by down-height: another maximal element has a larger down-set or
      down-height than v, or every one tied with v is its twin. Only the
      remaining ones are searched.

    Each child inherits its parent's down-rows and down-heights; v's
    down-height is the first level of the down-height table its ideal
    misses. The list comes in generation order. Budget stops at n = 8.
    """
    return list(_posets(n))


def _posets(n: int):
    """enumerate_posets's posets, generated as iterated; n is checked first."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_MAX_FREE:
        raise BudgetExceeded(f"enumeration supports up to {ENUM_MAX_FREE} elements")
    return _augment(Poset((1,)), n)


def enumerate_bounded_posets(size: int) -> list[Poset]:
    """All bounded posets of the given size, up to isomorphism.

    Representatives are the free posets on size-2 elements with fresh
    bounds adjoined; distinct cores stay distinct after bounding because
    the added bottom and top are recoverable as the unique extremes.
    """
    return list(_bounded_posets(size))


def _bounded_posets(size: int):
    """enumerate_bounded_posets's posets, each bounded as it is generated, so
    no list of free posets is built; size is checked first."""
    if size < 3:
        raise ValueError("bounded enumeration starts at size 3")
    if size - 2 > ENUM_MAX_FREE:
        raise BudgetExceeded(
            f"bounded enumeration supports up to size {ENUM_MAX_FREE + 2}")
    return map(Poset.add_bounds, _posets(size - 2))


def random_graph_poset(cfg: GenConfig) -> Poset:
    """Transitive closure of an Erdos-Renyi graph oriented small-to-large.

    Each unordered pair {i, j} with i < j becomes the relation i <= j with
    probability cfg.p, independently: one draw per pair, i then j
    ascending, each kept pair passed to Poset.from_relation as it is drawn.
    The closure is already antisymmetric because edges always point upward
    in index order.
    """
    if cfg.model != "random-graph":
        raise ValueError("config is not for the random-graph model")
    draw, n, prob = random.Random(cfg.seed).random, cfg.n, cfg.p
    p = Poset.from_relation(n, ((i, j) for i in range(n) for j in range(i + 1, n)
                                if draw() < prob))
    return p.add_bounds() if cfg.add_bounds else p


def random_kdim_poset(cfg: GenConfig) -> Poset:
    """Intersection of cfg.k uniformly random total orders on n elements."""
    if cfg.model != "random-kdim":
        raise ValueError("config is not for the random-kdim model")
    rng = random.Random(cfg.seed)
    n = cfg.n
    rows = [(1 << n) - 1] * n
    for _ in range(cfg.k):
        perm = list(range(n))
        rng.shuffle(perm)
        # Walking the order backwards, `above` holds v and what follows it.
        above = 0
        for v in reversed(perm):
            above |= 1 << v
            rows[v] &= above
    p = Poset(rows)
    return p.add_bounds() if cfg.add_bounds else p


def generate(cfg: GenConfig) -> Poset:
    """Dispatch a single-poset model; exhaustive mode is not single-poset."""
    if cfg.model == "random-graph":
        return random_graph_poset(cfg)
    if cfg.model == "random-kdim":
        return random_kdim_poset(cfg)
    raise ValueError("use enumerate_posets/enumerate_bounded_posets for exhaustive")


def _corpus(model: str, sizes, count: int, *, seed: int = 0, **params):
    """random_corpus's posets, drawn as iterated; every config is checked first."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    cfgs = [GenConfig(model, n, seed=seed + i, **params)
            for i, n in enumerate(n for n in sizes for _ in range(count))]
    return map(generate, cfgs)


def random_corpus(model: str, sizes, count: int, *, p: float = 0.5, k: int = 3,
                  seed: int = 0, add_bounds: bool = True) -> list[Poset]:
    """`count` posets per core size, seeds running seed, seed+1, ..."""
    return list(_corpus(model, sizes, count, p=p, k=k, seed=seed, add_bounds=add_bounds))
