"""Batch rank-iteration statistics and least-squares fits."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass, fields
from fractions import Fraction
from math import log
from operator import add, attrgetter

from .errors import DegenerateInput, DomainError, EmptyInput
from .rank import average_rank_width, iterate_to_chain


@dataclass(frozen=True)
class IterationRecord:
    """One poset's rank-iteration outcome."""

    poset_id: str
    size: int
    height: int
    width: int
    iterations: int
    final_chain_size: int
    final_height: int
    avg_rank_width: Fraction


CSV_COLUMNS = tuple(f.name for f in fields(IterationRecord))


def run_iteration_experiment(posets, ids=None) -> list[IterationRecord]:
    """Iterate every poset to a chain and record the measurements.

    With ids given, posets may be a generator: each is read once, in turn."""
    if ids is None:
        posets = list(posets)
        ids = [f"P{i:05d}" for i in range(len(posets))]
    records = []
    for pid, p in zip(ids, posets, strict=True):
        trace = iterate_to_chain(p)
        final_size = len(trace.preorder_levels)  # a chain's height
        records.append(IterationRecord(
            poset_id=str(pid),
            size=p.n,
            height=p.height(),
            width=p.width(),
            iterations=trace.iterations_to_chain,
            final_chain_size=final_size,
            final_height=final_size,
            avg_rank_width=average_rank_width(p),
        ))
    return records


@dataclass(frozen=True)
class GroupMeans:
    """Exact per-group means of the record measurements."""

    key: int
    count: int
    iterations: Fraction
    final_chain_size: Fraction
    final_height: Fraction
    avg_rank_width: Fraction


def aggregate_by(records, key: str) -> dict[int, GroupMeans]:
    """Group records by size or height; means stay exact rationals.

    Records are read once, in order, into a count and sums per group, so
    they may be a generator that is never held."""
    if key not in ("size", "height"):
        raise ValueError("key must be 'size' or 'height'")
    means = [f.name for f in fields(GroupMeans)[2:]]  # after key and count
    measure = attrgetter(*means)
    zero = (0,) * (1 + len(means))
    totals: dict[int, tuple] = {}  # group -> (count, *sums)
    for r in records:
        g = getattr(r, key)
        totals[g] = tuple(map(add, totals.get(g, zero), (1, *measure(r))))
    if not totals:
        raise EmptyInput("no records to aggregate")
    return {g: GroupMeans(g, c, *(Fraction(s, c) for s in sums))
            for g, (c, *sums) in sorted(totals.items())}


@dataclass(frozen=True)
class FitResult:
    kind: str
    a: float
    b: float
    r_squared: float


def _ols(xs, ys, kind: str) -> FitResult:
    # Closed-form least squares over exact rationals; floats are exact
    # rationals too, so the only rounding is the final float() of each value.
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("x and y lengths differ")
    if len(xs) < 2 or all(x == xs[0] for x in xs):
        raise DegenerateInput("fit needs at least two distinct x values")
    n = len(xs)
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    a = sxy / sxx
    b = y_mean - a * x_mean
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    # An exact fit of constant ys leaves no residual.
    r2 = 1 - ss_res / ss_tot if ss_tot else Fraction(1)
    return FitResult(kind, float(a), float(b), float(r2))


def linear_fit(xs, ys) -> FitResult:
    """Least squares y = a*x + b with coefficient of determination."""
    return _ols(xs, ys, "linear")


def log_fit(xs, ys) -> FitResult:
    """Least squares y = a*ln(x) + b; requires strictly positive x."""
    xs = list(xs)  # read twice: checked, then fitted
    if any(x <= 0 for x in xs):
        raise DomainError("log fit needs strictly positive x values")
    return _ols([log(x) for x in xs], ys, "logarithmic")


def _write_atomic(path, text: str) -> None:
    # Every file the package writes: a temporary file beside path, renamed
    # over it and removed if either step fails; newlines are not translated.
    # mkstemp makes it private, so it gets the mode open() would have given.
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_records_csv(records, path) -> None:
    """Write records with the fixed column schema; a failure, in the records
    or in the write, leaves any earlier file at path unchanged."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    # An exact Fraction (avg_rank_width) is written as its float.
    writer.writerows([float(v) if isinstance(v, Fraction) else v for v in row]
                     for row in map(attrgetter(*CSV_COLUMNS), records))
    _write_atomic(path, buf.getvalue())
