"""Exhaustive and random poset generation.

Random models draw from stdlib ``random.Random`` (Mersenne Twister), whose
seeded streams are stable across CPython versions; a corpus derives the
seed of its i-th poset as ``seed + i`` so corpora are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import random

from .errors import BudgetExceeded
from .poset import Poset, _bits

ENUM_MAX_FREE = 7
ENUM_MAX_BOUNDED = 9

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
    # Bottom up over a linear extension (down-sets grow along <, ties by
    # index): e joins each ideal already built that holds its strict
    # down-set and, if e has a twin of lower index, the nearest one. So an
    # ideal holds each class of twins as a prefix.
    strict, below = q.strict_rows, q.strict_down_rows
    last: dict = {}
    ideals = [0]
    for e in sorted(range(q.n), key=lambda e: below[e].bit_count()):
        key = (strict[e], below[e])
        need = below[e] | last.get(key, 0)
        last[key] = 1 << e
        ideals += [m | 1 << e for m in ideals if not need & ~m]
    return ideals


def _extend_with_maximal(q: Poset, ideal: int) -> Poset:
    # Append one new maximal element sitting above exactly `ideal`. The old
    # elements keep their down-sets, so the child inherits q's down-rows
    # and down-heights and only the new element's are computed.
    new = 1 << q.n
    rows = [r | new if ideal >> e & 1 else r for e, r in enumerate(q.rows)]
    rows.append(new)
    child = Poset(rows)
    heights = q.down_heights
    vars(child).update(
        down_rows=q.down_rows + (ideal | new,),
        down_heights=heights + (1 + max((heights[e] for e in _bits(ideal)), default=0),))
    return child


def enumerate_posets(n: int) -> list[Poset]:
    """All posets on n elements, one representative per isomorphism class.

    Grown level by level: every poset arises from deleting a maximal
    element, so extending each (n-1)-element representative by a new
    maximal element above each order ideal reaches every class. It still
    does under two prunings:

    - swapping twins (elements with equal strict up- and down-sets) is an
      automorphism, so only ideals that hold a prefix, by index, of each
      twin class are generated. Each comes first in its orbit, so the first
      extension found in each class, the one kept, is the same as without;
    - an extension is built only when its new element has a largest
      down-set among the maximal elements (McKay's canonical deletion, as
      a pre-test): deleting such an element from any poset of the class
      leaves a poset isomorphic to a representative.

    Each extension inherits its parent's down-rows and down-heights.
    Duplicates are removed through canonical forms, and the list is sorted
    by them. Budget stops at n = 7.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > ENUM_MAX_FREE:
        raise BudgetExceeded(f"enumeration supports up to {ENUM_MAX_FREE} elements")
    level = {Poset((1,)).canonical_form(): Poset((1,))}
    for _ in range(n - 1):
        grown: dict[tuple, Poset] = {}
        for q in level.values():
            sizes = [d.bit_count() for d in q.down_rows]
            tops = [e for e in range(q.n) if q.rows[e] == 1 << e]
            for ideal in _order_ideals(q):
                # The new element's down-set must be as large as that of
                # every other maximal element of the child.
                size = ideal.bit_count() + 1
                if any(sizes[e] > size for e in tops if not ideal >> e & 1):
                    continue
                cand = _extend_with_maximal(q, ideal)
                key = cand.canonical_form()
                if key not in grown:
                    grown[key] = cand
        level = grown
    return [level[key] for key in sorted(level)]


def enumerate_bounded_posets(size: int) -> list[Poset]:
    """All bounded posets of the given size, up to isomorphism.

    Representatives are the free posets on size-2 elements with fresh
    bounds adjoined; distinct cores stay distinct after bounding because
    the added bottom and top are recoverable as the unique extremes.
    """
    if size < 3:
        raise ValueError("bounded enumeration starts at size 3")
    if size > ENUM_MAX_BOUNDED:
        raise BudgetExceeded(
            f"bounded enumeration supports up to size {ENUM_MAX_BOUNDED}")
    return [q.add_bounds() for q in enumerate_posets(size - 2)]


def random_graph_poset(cfg: GenConfig) -> Poset:
    """Transitive closure of an Erdos-Renyi graph oriented small-to-large.

    Each unordered pair {i, j} with i < j becomes the relation i <= j with
    probability cfg.p, independently; the closure of the result is already
    antisymmetric because edges always point upward in index order.
    """
    if cfg.model != "random-graph":
        raise ValueError("config is not for the random-graph model")
    rng = random.Random(cfg.seed)
    n = cfg.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < cfg.p]
    p = Poset.from_relation(n, pairs)
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
