"""Half-open interval sets on the real line.

Every set is a finite union of ``[start, end)`` intervals, kept sorted and
disjoint. Half-open endpoints make the algebra exact for schedules: abutting
activities ``[a, b)`` and ``[b, c)`` merge with no double-counted boundary,
and measure is additive across unions. All arithmetic is plain float math;
no tolerance is applied inside the algebra itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class IntervalSet:
    """An immutable union of half-open intervals ``[start, end)``."""

    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", _normalize(self.intervals))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> IntervalSet:
        return cls(tuple(pairs))

    @classmethod
    def _from_normal(cls, intervals: tuple[tuple[float, float], ...]) -> IntervalSet:
        """A set of float intervals already sorted, non-empty and apart, kept as given."""
        self = object.__new__(cls)
        self.__dict__["intervals"] = intervals
        return self

    @classmethod
    def single(cls, start: float, end: float) -> IntervalSet:
        return cls(((start, end),))

    @classmethod
    def empty(cls) -> IntervalSet:
        return cls(())

    @property
    def measure(self) -> float:
        """Total length covered, in the same units as the endpoints."""
        return sum(end - start for start, end in self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __contains__(self, instant: float) -> bool:
        return any(start <= instant < end for start, end in self.intervals)

    def __or__(self, other: IntervalSet) -> IntervalSet:
        return IntervalSet(self.intervals + other.intervals)

    def __and__(self, other: IntervalSet) -> IntervalSet:
        out: list[tuple[float, float]] = []
        i, j = 0, 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            start = max(a[i][0], b[j][0])
            end = min(a[i][1], b[j][1])
            if start < end:
                out.append((start, end))
            # Advance whichever interval ends first; the other may still
            # overlap the next one on this side.
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def __sub__(self, other: IntervalSet) -> IntervalSet:
        out: list[tuple[float, float]] = []
        for start, end in self.intervals:
            cursor = start
            for cut_start, cut_end in other.intervals:
                if cut_end <= cursor:
                    continue
                if cut_start >= end:
                    break
                if cut_start > cursor:
                    out.append((cursor, cut_start))
                cursor = max(cursor, cut_end)
                if cursor >= end:
                    break
            if cursor < end:
                out.append((cursor, end))
        return IntervalSet(tuple(out))

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __repr__(self) -> str:
        body = ", ".join(f"[{s}, {e})" for s, e in self.intervals)
        return f"IntervalSet({body})"


def _normalize(pairs: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sort, drop empty intervals, and merge overlapping or abutting ones."""
    kept = sorted((float(s), float(e)) for s, e in pairs if e > s)
    merged: list[tuple[float, float]] = []
    for start, end in kept:
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return tuple(merged)
