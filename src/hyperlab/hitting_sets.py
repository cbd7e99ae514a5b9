"""Exact integer-set combinatorics for visit-time analysis.

Everything here is windowed: a set lives inside [0, N) and every
density-like quantity is a window functional standing in for the
asymptotic one, reported together with its window.  All counting is
exact integer arithmetic (the FFT autocorrelation used by
difference_set is thresholded at 0.5 against integer-valued exact
counts, so it is exact too).

Gap semantics: max_gap counts the leading gap as (first element + 1)
and the trailing gap as (N - last element).  With that convention the
coverage statement is exact: max_gap(S) <= g if and only if every
length-g subwindow of [0, N) meets S.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .jsonio import _is_number, _read_field, check_schema


@dataclass(frozen=True, eq=False)
class WindowedSet:
    """Strictly increasing integers inside the window [0, N)."""

    window: int
    elements: np.ndarray

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be a positive integer")
        e = self.elements
        if e.ndim != 1 or e.dtype.kind != "i":
            raise ValueError("elements must be a 1d integer array")
        if e.size:
            if e[0] < 0 or e[-1] >= self.window:
                raise ValueError("elements must lie in [0, window)")
            if np.any(np.diff(e) <= 0):
                raise ValueError("elements must be strictly increasing")

    @classmethod
    def from_iterable(cls, window: int, items) -> "WindowedSet":
        return cls(window=window, elements=np.unique(np.fromiter(items, np.int64)))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "WindowedSet":
        """The True positions of a boolean mask; the window is its length."""
        return cls(window=mask.size, elements=np.flatnonzero(mask).astype(np.int64))

    @property
    def size(self) -> int:
        return int(self.elements.size)

    def __contains__(self, value: int) -> bool:
        idx = np.searchsorted(self.elements, value)
        return bool(idx < self.size and self.elements[idx] == value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WindowedSet):
            return NotImplemented
        return self.window == other.window and np.array_equal(
            self.elements, other.elements
        )

    def __repr__(self) -> str:
        return f"WindowedSet(window={self.window}, size={self.size})"

    def indicator(self) -> np.ndarray:
        x = np.zeros(self.window, dtype=np.int64)
        x[self.elements] = 1
        return x

    def to_dict(self) -> dict:
        return {
            "schema": "windowed-set/1",
            "window": self.window,
            "elements": [int(v) for v in self.elements],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "WindowedSet":
        check_schema(doc, "windowed-set")
        window = _read_field(doc, "windowed-set", "window")
        elements = _read_field(doc, "windowed-set", "elements", "list")
        for what, v in [("window", window)] + [("element", v) for v in elements]:
            if not _is_number(v, int):
                raise ValueError(f"windowed-set {what} {v!r} is not an integer")
        return cls.from_iterable(window, elements)

    @classmethod
    def from_lines(cls, text: str) -> "WindowedSet":
        """Parse a newline-delimited integer log (orbit visit indices) into
        the smallest window holding it."""
        items = [int(line) for line in text.split() if line.strip()]
        return cls.from_iterable(max(items) + 1 if items else 1, items)


def _prefix_counts(L: WindowedSet) -> np.ndarray:
    """counts[n] = |L intersect [0, n)| for n = 0..N."""
    counts = np.zeros(L.window + 1, dtype=np.int64)
    counts[L.elements + 1] = 1
    return np.cumsum(counts)


def density_ladder(N: int) -> list:
    """Nine prefix lengths stepping geometrically from N down to ceil(N/2)."""
    lengths = sorted({int(ceil(N * 2.0 ** (-k / 8.0))) for k in range(9)})
    return [n for n in lengths if n >= 1]


def upper_density(L: WindowedSet) -> float:
    """Largest prefix density over the geometric ladder; window proxy
    for the upper asymptotic density."""
    counts = _prefix_counts(L)
    return float(max(counts[n] / n for n in density_ladder(L.window)))


def lower_density(L: WindowedSet) -> float:
    counts = _prefix_counts(L)
    return float(min(counts[n] / n for n in density_ladder(L.window)))


def upper_banach_density(L: WindowedSet, min_len: int) -> float:
    """Exact maximum of |L intersect I|/|I| over subintervals I of the
    window with |I| >= min_len, by Dinkelbach's parametric search.

    The current density is an integer pair num/den, starting at 0/1.
    Each round finds the admissible interval maximizing the integer gain
    den*count - num*length (one prefix-minimum pass over the prefix
    counts) and moves num/den to that interval's count/length; a best
    gain <= 0 certifies num/den as the maximum.  All comparisons are
    exact int64 arithmetic (products stay below N^2), and the result is
    count/length of the winning integer pair, rounded once."""
    if not 1 <= min_len <= L.window:
        raise ValueError(f"min_len must lie in [1, {L.window}]")
    counts = _prefix_counts(L)
    positions = np.arange(L.window + 1, dtype=np.int64)
    num, den = 0, 1
    while True:
        # the gain of [s, e) is score[e] - score[s]; each end e >= min_len
        # pairs with the lowest score at a start s <= e - min_len
        score = den * counts - num * positions
        lowest = np.minimum.accumulate(score[:-min_len])
        gains = score[min_len:] - lowest
        best = int(np.argmax(gains))
        if gains[best] <= 0:
            return num / den
        start = int(np.argmin(score[:best + 1]))
        stop = best + min_len
        num, den = int(counts[stop] - counts[start]), stop - start


def difference_set(L: WindowedSet) -> WindowedSet:
    """{a - b : a, b in L, a >= b} over the same window, always
    containing 0.  Computed by exact FFT autocorrelation of the
    indicator (integer counts, thresholded at 1/2)."""
    if L.size == 0:
        raise ValueError("difference set needs a nonempty input")
    x = L.indicator().astype(float)
    n = 2 * L.window
    spectrum = np.fft.rfft(x, n)
    corr = np.fft.irfft(spectrum * np.conj(spectrum), n)[: L.window]
    return WindowedSet.from_mask(corr > 0.5)


def max_gap(S: WindowedSet) -> int:
    """Largest gap, counting first + 1 at the front and N - last at the
    back; N for the empty set.  Exactly the smallest g such that every
    length-g subwindow of [0, N) meets S."""
    if S.size == 0:
        return S.window
    e = S.elements
    lead = int(e[0]) + 1
    trail = S.window - int(e[-1])
    inner = int(np.max(np.diff(e))) if S.size > 1 else 0
    return max(lead, trail, inner)


def longest_interval(S: WindowedSet) -> int:
    """Length of the longest run of consecutive integers in S."""
    if S.size == 0:
        return 0
    breaks = np.nonzero(np.diff(S.elements) != 1)[0]
    run_starts = np.concatenate([[0], breaks + 1])
    run_ends = np.concatenate([breaks, [S.size - 1]])
    return int(np.max(run_ends - run_starts) + 1)
