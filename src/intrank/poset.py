"""Finite partially ordered sets over dense bitset relation rows.

Elements are the integer indices 0..n-1, optionally labelled. The order
relation is stored as one Python int per element: bit j of ``rows[i]`` is
set iff i <= j. Derived structure (covers, chain heights, canonical form)
is computed lazily and cached, and instances are treated as immutable
after construction.

Sizes of interest stay small (enumeration stops at 8 unbounded / 10
bounded elements), so every algorithm here favours bitset row operations
over asymptotic cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import and_, or_

from .errors import CycleError, NotComparable, UnboundedError


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=64)
def _default_labels(n: int) -> tuple[str, ...]:
    # One tuple of names x0..x{n-1} per size, shared by every poset built
    # without labels.
    return tuple(f"x{i}" for i in range(n))


@lru_cache(maxsize=64)
def _bounded_labels(labels: tuple[str, ...]) -> tuple[str, ...]:
    # Distinct labels, then BOT and TOP each padded with "_" until new: one
    # tuple per label tuple, shared by every poset add_bounds builds on it.
    out = list(labels)
    for base in ("BOT", "TOP"):
        name = base
        while name in out:
            name += "_"
        out.append(name)
    return tuple(out)


def _closure(mask: int, perms) -> int:
    # The least superset of mask that each permutation (an image list)
    # maps into itself.
    grown = 0
    while grown != mask:
        grown = mask
        for g in perms:
            for x in _bits(grown):
                mask |= 1 << g[x]
    return mask


def _pair_rows(n: int, pairs) -> list[int]:
    # Bit b of rows[a] per pair (a, b); ValueError if n < 1, IndexError outside 0..n-1.
    if n < 1:
        raise ValueError("a poset needs at least one element")
    rows = [0] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"pair ({a}, {b}) out of range for {n} elements")
        rows[a] |= 1 << b
    return rows


def _row_pairs(rows):
    # (i, j) for each bit j of rows[i], in sorted order.
    return ((i, j) for i, row in enumerate(rows) for j in _bits(row))


def _warshall(rows: list[int], n: int) -> list[int]:
    # Reflexive-transitive closure by Warshall's n^2 bit tests.
    out = [rows[i] | (1 << i) for i in range(n)]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= out[k]
    return out


def _close(rows: list[int], n: int) -> list[int]:
    """Reflexive-transitive closure of bitset rows, depth-first (Purdom, 1970).

    An element's row is its own bit ORed with the finished rows of its
    generators, walked with an explicit stack, not by recursion. A
    generator already inside the row is skipped: it came in with a finished
    row, which holds everything above it. So the work is about one OR per
    generator that the others do not imply. Meeting a generator that is
    still open means a cycle; only then does Warshall's loop close the
    rows, and check_partial_order raises CycleError for the first pair
    related both ways. So the rows returned are always a partial order.
    """
    out = [1 << i for i in range(n)]
    done = 0  # elements whose rows are finished
    for root in range(n):
        if done >> root & 1:
            continue
        stack, open_ = [root], 1 << root
        while stack:
            v = stack[-1]
            todo = rows[v] & ~out[v]
            if not todo:
                stack.pop()
                done |= 1 << v
                open_ ^= 1 << v
                if stack:
                    out[stack[-1]] |= out[v]
                continue
            low = todo & -todo
            if low & done:
                out[v] |= out[low.bit_length() - 1]
            elif low & open_:  # low and v lie on a cycle, so the check raises
                check_partial_order(_warshall(rows, n), n)
            else:
                stack.append(low.bit_length() - 1)
                open_ |= low
    return out


def check_partial_order(rows: tuple[int, ...], n: int) -> None:
    """Raise if rows are not a reflexive, antisymmetric, transitive relation.

    ValueError first if there are not n rows or a bit lies outside 0..n-1.
    A decision pass then tests each row i: it holds bit i, and each j above
    i has a row inside row i without bit i, whose elements row i then skips.
    A skipped k needs no test of its own: the pass accepts only if row j
    passes too, and row j is smaller than row i (it lacks i), so by
    induction on row size k's row lies inside row j. On rows listed bottom
    first, the lowest j above i is a cover of i, whose row often holds most
    of the rest. Only when the pass refuses does the diagnosis scan run, in
    index order over each row's bits from the lowest, to raise ValueError
    at the first element that is not reflexive, CycleError at the first
    pair related both ways or ValueError at the first pair where
    transitivity fails.
    """
    if len(rows) != n:
        raise ValueError(f"{len(rows)} rows for {n} elements")
    if n and (min(rows) < 0 or max(rows) >> n):
        raise ValueError("relation bits out of range")
    for i, row in enumerate(rows):
        bit = 1 << i
        m = row ^ bit  # the strict up-set, if row i holds bit i
        if m & bit:
            _diagnose(rows, n)
        outside = ~m
        while m:
            low = m & -m
            up = rows[low.bit_length() - 1]
            if up & outside:
                _diagnose(rows, n)
            m &= ~(up | low)


def _diagnose(rows, n: int) -> None:
    # The index-order scan that names the first violation; called only on
    # rows the decision pass refused, so it always raises.
    for i in range(n):
        row = rows[i]
        bit = 1 << i
        if not row & bit:
            raise ValueError(f"relation is not reflexive at element {i}")
        outside = ~row
        m = row ^ bit  # j == i can fail neither test
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            up = rows[j]
            if up & bit:
                raise CycleError(f"elements {i} and {j} are mutually related")
            if up & outside:
                raise ValueError(f"relation is not transitive at ({i}, {j})")


class Poset:
    """A finite poset; ``rows[i]`` is the bitset of elements above-or-equal i."""

    def __init__(self, rows, labels=None, *, _checked: bool = False):
        # The package passes _checked only for rows it built as a partial order.
        rows = tuple(rows)
        n = len(rows)
        if n < 1:
            raise ValueError("a poset needs at least one element")
        if labels is None:
            labels = _default_labels(n)
        else:
            labels = tuple(str(name) for name in labels)
            if len(labels) != n:
                raise ValueError("label count must match element count")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
        if not _checked:
            check_partial_order(rows, n)
        self.n = n
        self.rows = rows
        self.labels = labels

    @classmethod
    def from_relation(cls, n: int, generators, labels=None) -> "Poset":
        """Close generator pairs reflexively and transitively.

        The closure raises CycleError for the first pair related both ways,
        so what it returns is a partial order and is not checked again.
        Raises IndexError for pairs mentioning elements outside 0..n-1.
        """
        return cls(_close(_pair_rows(n, generators), n), labels, _checked=True)

    # -- basic queries -------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a: int, b: int) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no element labelled {label!r}") from None

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        pairs = sum(r.bit_count() for r in self.rows)
        return f"Poset(n={self.n}, pairs={pairs})"

    # -- derived rows ---------------------------------------------------

    @cached_property
    def strict_rows(self) -> tuple[int, ...]:
        return tuple(self.rows[i] & ~(1 << i) for i in range(self.n))

    @cached_property
    def down_rows(self) -> tuple[int, ...]:
        down = [0] * self.n
        for i, m in enumerate(self.rows):
            bit = 1 << i
            while m:
                low = m & -m
                m ^= low
                down[low.bit_length() - 1] |= bit
        return tuple(down)

    @cached_property
    def strict_down_rows(self) -> tuple[int, ...]:
        return tuple(self.down_rows[i] & ~(1 << i) for i in range(self.n))

    @cached_property
    def cover_rows(self) -> tuple[int, ...]:
        # (i, j) is a cover iff i < j with nothing strictly between: j is
        # above i but in no strict up-set of an element above i. Needs no
        # transpose.
        strict = self.strict_rows
        return tuple(s & ~reduce(or_, (strict[k] for k in _bits(s)), 0) for s in strict)

    def covers(self) -> frozenset[tuple[int, int]]:
        """Transitive reduction as (lower, upper) pairs."""
        return frozenset(_row_pairs(self.cover_rows))

    # -- chains and heights ----------------------------------------------

    def _chain_heights(self, down: bool = False) -> tuple[int, ...]:
        # Longest chain starting (with `down`, ending) at each element along
        # strict up-set edges. If i relates to j then j's strict set is properly
        # inside i's, so ascending popcount goes top first, descending bottom
        # first. levels[h] masks the elements given height h + 1 (with `down`,
        # their strict sets); an element gets one more than the highest
        # level its strict set meets (with `down`, the highest holding it).
        n, strict = self.n, self.strict_rows
        heights = [1] * n
        levels: list[int] = []
        sizes = [r.bit_count() for r in strict]
        for i in sorted(range(n), key=sizes.__getitem__, reverse=down):
            probe, mark = (1 << i, strict[i]) if down else (strict[i], 1 << i)
            h = len(levels)
            while h and not levels[h - 1] & probe:
                h -= 1
            if h == len(levels):
                levels.append(0)
            levels[h] |= mark
            heights[i] = h + 1
        return tuple(heights)

    @cached_property
    def up_heights(self) -> tuple[int, ...]:
        """up_heights[a]: size of the longest chain inside the up-set of a."""
        return self._chain_heights()

    @cached_property
    def down_heights(self) -> tuple[int, ...]:
        """down_heights[a]: size of the longest chain inside the down-set of a,
        swept bottom first over the up-set rows, so without a transpose."""
        return self._chain_heights(down=True)

    def height(self) -> int:
        """Size of the largest chain."""
        return max(self.up_heights)

    def width(self) -> int:
        """Size of the largest antichain.

        Computed as n minus a maximum matching on the strict-comparability
        bipartite graph (minimum chain cover; Fulkerson, 1956), via
        augmenting paths that look ahead: `free` masks the right vertices
        still unmatched, and a left vertex whose strict row meets it takes
        the lowest free one at once. Any maximum matching gives the width,
        which is the number of right vertices left unmatched.
        """
        strict = self.strict_rows
        match_right = [-1] * self.n
        free = (1 << self.n) - 1
        for root, row in enumerate(strict):
            hit = row & free
            if hit:
                low = hit & -hit
                match_right[low.bit_length() - 1] = root
                free ^= low
                continue
            # Depth-first search for an augmenting path, lowest index first:
            # path[k] is a left vertex and taken[k] the matched right vertex
            # passed from it; a right vertex is passed at most once per root.
            seen = 0
            path = [root]
            taken: list[int] = []
            while path:
                row = strict[path[-1]]
                hit = row & free
                if hit:
                    low = hit & -hit
                    taken.append(low.bit_length() - 1)
                    for i, right in zip(path, taken):
                        match_right[right] = i
                    free ^= low
                    break
                left = row & ~seen
                if not left:
                    path.pop()
                    if taken:
                        taken.pop()
                    continue
                low = left & -left
                seen |= low
                j = low.bit_length() - 1
                taken.append(j)
                path.append(match_right[j])
        return free.bit_count()

    def maximal_chains(self) -> list[tuple[int, ...]]:
        """All inclusion-maximal chains, each listed bottom to top."""
        chains: list[tuple[int, ...]] = []
        succ = self.cover_rows
        above_some = reduce(or_, self.strict_rows)
        for start in range(self.n):
            if above_some >> start & 1:
                continue
            # Depth-first over covers, lowest index first; pending[i] holds
            # the covers of path[i] not yet walked.
            path = [start]
            pending = [_bits(succ[start])]
            while pending:
                j = next(pending[-1], None)
                if j is not None:
                    path.append(j)
                    pending.append(_bits(succ[j]))
                    continue
                if not succ[path[-1]]:
                    chains.append(tuple(path))
                path.pop()
                pending.pop()
        return chains

    def spindle_chains(self) -> list[tuple[int, ...]]:
        """Maximal chains of maximum size."""
        h = self.height()
        return [c for c in self.maximal_chains() if len(c) == h]

    def spindle_elements(self) -> tuple[int, ...]:
        """Elements lying on some maximum-size chain."""
        h = self.height()
        return tuple(a for a in range(self.n) if self.spindle_length(a) == h)

    def spindle_length(self, a: int) -> int:
        """Size of the longest chain through a."""
        return self.up_heights[a] + self.down_heights[a] - 1

    # -- bounds, duality, shape ------------------------------------------

    @cached_property
    def bottom(self) -> int | None:
        full = (1 << self.n) - 1
        for i in range(self.n):
            if self.rows[i] == full:
                return i
        return None

    @cached_property
    def top(self) -> int | None:
        """The element in every up-set, if there is one; needs no transpose."""
        common = reduce(and_, self.rows)
        return common.bit_length() - 1 if common else None

    def is_bounded(self) -> bool:
        return self.bottom is not None and self.top is not None

    def is_chain(self) -> bool:
        # A partial order is a chain exactly when its n up-set sizes are
        # distinct (by induction on the bottom element).
        return len({r.bit_count() for r in self.rows}) == self.n

    def is_graded(self) -> bool:
        """True iff chain distance from the top decrements along every cover.

        Uses the labelling rho(a) = up_heights[a] - 1 (so rho(top) = 0) and
        checks rho(a) = rho(b) + 1 for every cover a < b. On bounded posets
        this is equivalent to all maximal chains having equal size.
        """
        if self.top is None:
            raise UnboundedError("gradedness needs a top element")
        rho = [h - 1 for h in self.up_heights]
        return all(rho[i] == rho[j] + 1 for i, j in _row_pairs(self.cover_rows))

    def add_bounds(self) -> "Poset":
        """Adjoin a fresh bottom and top, even if the poset is already bounded."""
        n = self.n
        top = n + 1
        full = (1 << (n + 2)) - 1
        rows = [self.rows[i] | (1 << top) for i in range(n)]
        rows.append(full)       # new bottom, below everything
        rows.append(1 << top)   # new top, above nothing
        # construction preserves the poset axioms and the distinct labels
        bounded = Poset(rows, _checked=True)
        bounded.labels = _bounded_labels(self.labels)
        return bounded

    def dual(self) -> "Poset":
        """The same elements with the order reversed."""
        return Poset(self.down_rows, self.labels, _checked=True)

    # -- subset views ------------------------------------------------------

    def upset(self, a: int) -> "SubsetView":
        return SubsetView(self, tuple(_bits(self.rows[a])))

    def downset(self, a: int) -> "SubsetView":
        return SubsetView(self, tuple(_bits(self.down_rows[a])))

    def hourglass(self, a: int) -> "SubsetView":
        """Everything comparable to a (union of its up-set and down-set)."""
        return SubsetView(self, tuple(_bits(self.rows[a] | self.down_rows[a])))

    def interval(self, a: int, b: int) -> "SubsetView":
        """Elements between a and b; requires a <= b."""
        if not self.leq(a, b):
            raise NotComparable(
                f"{self.labels[a]!r} is not below {self.labels[b]!r}")
        return SubsetView(self, tuple(_bits(self.rows[a] & self.down_rows[b])))

    def strict_pairs(self) -> frozenset[tuple[int, int]]:
        """Every related pair (a, b) with a < b in the order."""
        return frozenset(_row_pairs(self.strict_rows))

    def comparability_graph(self) -> frozenset[tuple[int, int]]:
        """Edges between distinct comparable elements, smaller index first."""
        return frozenset((i, j) if i < j else (j, i)
                         for i, j in _row_pairs(self.strict_rows))

    # -- isomorphism --------------------------------------------------------

    def _refine(self, cells: list[int], splitters: list[int]) -> list[int]:
        # Split the cells (bitmasks, in order) until the partition is
        # equitable: all members of a cell meet each cell in up-sets of one
        # size and in down-sets of one size. A round keys the members of each
        # cell that is not a singleton by those sizes inside the splitters
        # and splits it in place, parts in increasing key order; the parts
        # are the next round's splitters, as only they can split a cell
        # further. No element index is read, so the result is
        # relabelling-invariant.
        up, down = self.rows, self.down_rows
        w = self.n + 1
        while splitters:
            out: list[int] = []
            new: list[int] = []
            for cell in cells:
                if cell & (cell - 1):
                    parts: dict = {}
                    for x in _bits(cell):
                        u, d = up[x], down[x]
                        key = tuple([(u & s).bit_count() * w + (d & s).bit_count()
                                     for s in splitters])
                        parts[key] = parts.get(key, 0) | 1 << x
                    if len(parts) > 1:
                        split = [parts[k] for k in sorted(parts)]
                        out += split
                        new += split
                        continue
                out.append(cell)
            cells, splitters = out, new
        return cells

    @cached_property
    def _canonical(self) -> tuple[tuple[int, tuple[int, ...]], list[int], list[list[int]]]:
        # Individualization-refinement (McKay & Piperno, 2014). Colours start
        # from the chain heights and are refined to an equitable partition;
        # a cell that is neither a singleton nor a class of twins (members
        # with equal strict up- and down-sets) is split by individualizing
        # each member in turn, ahead of the rest of its cell. A leaf orders
        # the elements cell by cell, and the form is the least relabelled
        # row tuple over the leaves. Two leaves with equal rows give an
        # automorphism: the search returns to where their paths part, and
        # skips members in the orbit of those already tried under the
        # automorphisms fixing the path. The form is kept with the order of
        # the least leaf (the canonical order) and the automorphisms found,
        # as image lists; with the swaps of twins they generate Aut P.
        n, rows = self.n, self.rows
        seed: dict = {}
        for i, key in enumerate(zip(self.up_heights, self.down_heights)):
            seed[key] = seed.get(key, 0) | 1 << i
        found: list = []  # (rows, order, path) of the first leaf, then of the least
        autos: list[list[int]] = []  # automorphisms found, as image lists
        # Members of a cell are incomparable (chain heights differ along <),
        # so it is a class of twins iff it lies in its least member's class.
        twin = self._twins

        def leaf(order: list[int], path: list[int]) -> int | None:
            pos = [0] * n
            for k, e in enumerate(order):
                pos[e] = k
            form = []
            for e in order:
                m = 0
                for j in _bits(rows[e]):
                    m |= 1 << pos[j]
                form.append(m)
            form = tuple(form)
            if not found:
                found.extend([(form, order, path)] * 2)
                return None
            for other, other_order, other_path in found:
                if form == other:
                    image = [0] * n
                    for a, b in zip(other_order, order):
                        image[a] = b
                    autos.append(image)
                    return next((k for k, (a, b) in enumerate(zip(path, other_path))
                                 if a != b), len(path))
            if form < found[1][0]:
                found[1] = (form, order, path)
            return None

        def search(cells: list[int], splitters: list[int], path: list[int]) -> int | None:
            # Returns None, or the depth of the node to resume at.
            cells = self._refine(cells, splitters)
            target = next((c for c in cells if c & ~twin[(c & -c).bit_length() - 1]), 0)
            if not target:
                return leaf([e for c in cells for e in _bits(c)], path)
            at = cells.index(target)
            tried = 0
            for v in _bits(target):
                if tried >> v & 1:
                    continue
                bit = 1 << v
                jump = search(cells[:at] + [bit, target ^ bit] + cells[at + 1:], [bit],
                              path + [v])
                if jump is not None and jump < len(path):
                    return jump
                fixing = [g for g in autos if all(g[p] == p for p in path)]
                tried = _closure(tried | bit, fixing)
            return None

        cells = [seed[k] for k in sorted(seed)]
        search(cells, cells, [])
        return (n, found[1][0]), found[1][1], autos

    def canonical_form(self) -> tuple[int, tuple[int, ...]]:
        """A relabelling-invariant encoding of the relation: (n, rows).

        Equal across isomorphic posets and distinct otherwise. The rows are
        the least relabelled row tuple over the leaves of an
        individualization-refinement search that prunes by the
        automorphisms it finds, so symmetric posets stay cheap. Measured in
        process on a shared 2-CPU Intel Xeon under CPython 3.11, medians
        over separate runs were 26-42 ms for the boolean lattice 2^7 and
        1.5-3.1 ms for the standard example S_9.
        """
        return self._canonical[0]

    @cached_property
    def _twins(self) -> list[int]:
        # Each element's class of twins (equal strict up- and down-sets).
        keys = list(zip(self.strict_rows, self.strict_down_rows))
        classes: dict = {}
        for e, key in enumerate(keys):
            classes[key] = classes.get(key, 0) | 1 << e
        return [classes[key] for key in keys]

    def _twin_classes(self) -> list[int]:
        # The classes of twins, by least member.
        return list(dict.fromkeys(self._twins))

    def _orbits(self) -> list[int]:
        """The orbits of Aut P as element masks, by least member.

        Each is the closure of a class of twins under the automorphisms the
        canonical search found.
        """
        autos = self._canonical[2]
        orbits, seen = [], 0
        for t in self._twin_classes():
            if not t & seen:
                orbits.append(_closure(t, autos))
                seen |= orbits[-1]
        return orbits

    def is_isomorphic(self, other: "Poset") -> bool:
        return self.n == other.n and self.canonical_form() == other.canonical_form()


@dataclass(frozen=True)
class SubsetView:
    """A subset of a poset's elements carrying the restricted order."""

    parent: Poset
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        n = self.parent.n
        for e in members:
            if not 0 <= e < n:
                raise IndexError(f"element {e} out of range for {n} elements")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, element: int) -> bool:
        return element in self.members

    def element_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def height(self) -> int:
        """Size of the largest chain inside the subset."""
        return self.as_poset().height() if self.members else 0

    def as_poset(self) -> Poset:
        """The induced subposet, elements renumbered in member order."""
        idx = {e: i for i, e in enumerate(self.members)}
        up = [self.parent.rows[e] for e in self.members]
        rows = _pair_rows(len(up), ((i, idx[j]) for i, j in _row_pairs(up) if j in idx))
        labels = tuple(self.parent.labels[e] for e in self.members)
        return Poset(rows, labels, _checked=True)
