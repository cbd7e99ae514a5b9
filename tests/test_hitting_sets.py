"""Finite-window hitting sets: differences, gaps, densities.

Every structural function is checked against a brute-force enumeration
oracle on small windows; the parametric density search is checked
against the full scan over all admissible interval lengths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import line_events
from hyperlab import (
    WindowedSet,
    density_ladder,
    difference_set,
    longest_interval,
    lower_density,
    max_gap,
    upper_banach_density,
    upper_density,
)
from hyperlab.corpora import scaffold_set


def _full(window):
    return WindowedSet.from_mask(np.ones(window, dtype=bool))


def _empty(window):
    return WindowedSet.from_mask(np.zeros(window, dtype=bool))


@st.composite
def windowed_sets(draw, max_window=128, allow_empty=True):
    window = draw(st.integers(min_value=1, max_value=max_window))
    min_size = 0 if allow_empty else 1
    elements = draw(
        st.lists(st.integers(min_value=0, max_value=window - 1),
                 min_size=min_size, max_size=window, unique=True)
    )
    return WindowedSet.from_iterable(window, elements)


# -- brute-force oracles -------------------------------------------------

def brute_difference_set(L: WindowedSet) -> set:
    return {a - b for a in L.elements for b in L.elements if a >= b}


def brute_max_gap(S: WindowedSet) -> int:
    # smallest g such that every length-g subwindow meets S
    ind = S.indicator()
    N = S.window
    for g in range(1, N + 1):
        if all(ind[i:i + g].any() for i in range(0, N - g + 1)):
            return g
    return N


def brute_longest_interval(S: WindowedSet) -> int:
    best = run = 0
    prev = None
    for x in S.elements:
        run = run + 1 if prev is not None and x == prev + 1 else 1
        best = max(best, run)
        prev = x
    return best


def brute_ubd(L: WindowedSet, min_len: int) -> float:
    # full scan over every admissible length, not just the halved range
    counts = np.concatenate([[0], np.cumsum(L.indicator())])
    best = 0.0
    for length in range(min_len, L.window + 1):
        window_counts = counts[length:] - counts[:-length]
        best = max(best, float(np.max(window_counts)) / length)
    return best


# -- construction ----------------------------------------------------------

def test_from_iterable_sorts_and_dedups():
    s = WindowedSet.from_iterable(10, [5, 1, 5, 3])
    assert list(s.elements) == [1, 3, 5]
    assert s.size == 3


def test_from_mask_window_is_mask_length():
    mask = np.zeros(12, dtype=bool)
    mask[[0, 4, 11]] = True
    s = WindowedSet.from_mask(mask)
    assert s == WindowedSet.from_iterable(12, [11, 0, 4])
    assert s.elements.dtype == np.int64
    assert WindowedSet.from_mask(np.zeros(5, dtype=bool)) == WindowedSet.from_iterable(5, [])


def test_membership_and_window_bounds():
    s = WindowedSet.from_iterable(10, [0, 9])
    assert 0 in s and 9 in s and 4 not in s
    with pytest.raises(ValueError):
        WindowedSet.from_iterable(10, [10])
    with pytest.raises(ValueError):
        WindowedSet.from_iterable(10, [-1])
    with pytest.raises(ValueError):
        WindowedSet.from_iterable(0, [])


def test_serialization_round_trip():
    s = WindowedSet.from_iterable(12, [2, 7, 11])
    assert WindowedSet.from_dict(s.to_dict()) == s
    assert s.to_dict()["schema"].startswith("windowed-set")


@pytest.mark.parametrize("bad", [3.7, 3.0, True, "3", None])
def test_from_dict_rejects_non_integral_elements(bad):
    doc = {"schema": "windowed-set/1", "window": 10, "elements": [bad, 5]}
    with pytest.raises(ValueError, match=f"element {bad!r} is not an integer"):
        WindowedSet.from_dict(doc)


@pytest.mark.parametrize("bad", [10.7, 10.0, True, "10", None])
def test_from_dict_rejects_non_integral_window(bad):
    doc = {"schema": "windowed-set/1", "window": bad, "elements": [3, 5]}
    with pytest.raises(ValueError, match=f"window {bad!r} is not an integer"):
        WindowedSet.from_dict(doc)


@pytest.mark.parametrize("doc, message", [
    ({"window": 10}, "windowed-set document: missing required field 'elements'"),
    ({"elements": [3, 5]}, "windowed-set document: missing required field 'window'"),
    ({"window": 10, "elements": 5},
     "windowed-set field 'elements' must be a list, got 5"),
    ({"window": 10, "elements": None},
     "windowed-set field 'elements' must be a list, got None"),
])
def test_from_dict_names_a_missing_or_ill_typed_field(doc, message):
    with pytest.raises(ValueError, match=message):
        WindowedSet.from_dict({"schema": "windowed-set/1", **doc})


def test_lines_round_trip():
    # the window read back is the smallest one holding the elements
    s = WindowedSet.from_iterable(12, [2, 7, 11])
    assert WindowedSet.from_lines("".join(f"{v}\n" for v in s.elements)) == s


def test_indicator_shape():
    s = WindowedSet.from_iterable(6, [0, 3])
    np.testing.assert_array_equal(s.indicator(), [1, 0, 0, 1, 0, 0])


# -- difference sets ---------------------------------------------------------

def test_difference_set_requires_nonempty():
    with pytest.raises(ValueError):
        difference_set(_empty(8))


@settings(max_examples=60, deadline=None)
@given(windowed_sets(allow_empty=False))
def test_difference_set_matches_brute_force(L):
    got = set(difference_set(L).elements.tolist())
    assert got == brute_difference_set(L)


@settings(max_examples=40, deadline=None)
@given(windowed_sets(allow_empty=False))
def test_difference_set_contains_zero(L):
    assert 0 in difference_set(L)


@settings(max_examples=30, deadline=None)
@given(windowed_sets(max_window=64, allow_empty=False), st.data())
def test_difference_set_monotone_under_inclusion(L, data):
    extra = data.draw(st.lists(
        st.integers(min_value=0, max_value=L.window - 1), max_size=8))
    bigger = WindowedSet.from_iterable(
        L.window, list(L.elements) + extra)
    small = set(difference_set(L).elements.tolist())
    large = set(difference_set(bigger).elements.tolist())
    assert small <= large


# -- gaps and runs -------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(windowed_sets(max_window=64))
def test_max_gap_matches_brute_force(S):
    assert max_gap(S) == brute_max_gap(S)


@settings(max_examples=40, deadline=None)
@given(windowed_sets(max_window=48, allow_empty=False))
def test_max_gap_covering_characterization(S):
    # every subwindow of length max_gap meets S, and some shorter one misses
    g = max_gap(S)
    ind = S.indicator()
    N = S.window
    assert all(ind[i:i + g].any() for i in range(0, N - g + 1))
    if g > 1:
        assert not all(ind[i:i + g - 1].any() for i in range(0, N - g + 2))


def test_max_gap_known_values():
    assert max_gap(_empty(10)) == 10
    assert max_gap(WindowedSet.from_iterable(10, [0])) == 10  # trailing gap
    assert max_gap(WindowedSet.from_iterable(10, [9])) == 10  # leading gap
    assert max_gap(WindowedSet.from_iterable(10, [4])) == 6
    assert max_gap(_full(10)) == 1


@settings(max_examples=60, deadline=None)
@given(windowed_sets(max_window=64))
def test_longest_interval_matches_brute_force(S):
    assert longest_interval(S) == brute_longest_interval(S)


def test_longest_interval_known_values():
    assert longest_interval(_empty(8)) == 0
    assert longest_interval(WindowedSet.from_iterable(8, [1, 2, 3, 5])) == 3
    assert longest_interval(_full(8)) == 8


# -- densities -------------------------------------------------------------------

def test_density_ladder_shape():
    ladder = density_ladder(100)
    assert ladder == sorted(set(ladder))
    assert ladder[-1] == 100
    assert ladder[0] == 50
    assert all(n >= 1 for n in ladder)


def test_density_ladder_tiny_window():
    assert density_ladder(1) == [1]


@settings(max_examples=60, deadline=None)
@given(windowed_sets(max_window=96, allow_empty=False))
def test_density_ordering(L):
    lo = lower_density(L)
    hi = upper_density(L)
    banach = upper_banach_density(L, min_len=max(1, L.window // 8))
    assert 0.0 <= lo <= hi <= 1.0
    assert hi <= banach + 1e-12


@settings(max_examples=60, deadline=None)
@given(windowed_sets(max_window=96, allow_empty=False),
       st.integers(min_value=1, max_value=24))
def test_ubd_shortcut_equals_full_scan(L, min_len):
    min_len = min(min_len, L.window)
    assert upper_banach_density(L, min_len) == pytest.approx(
        brute_ubd(L, min_len), abs=1e-12
    )


def brute_ubd_every_min_len(L: WindowedSet) -> list:
    # entry m - 1 is the all-lengths maximum for min_len = m: a suffix
    # maximum over lengths of each length's densest window
    counts = np.concatenate([[0], np.cumsum(L.indicator())])
    per_length = [float(np.max(counts[length:] - counts[:-length])) / length
                  for length in range(1, L.window + 1)]
    return np.maximum.accumulate(per_length[::-1])[::-1].tolist()


@pytest.mark.parametrize("L, min_len", [
    (_empty(1), 1),
    (_empty(50), 7),
    (_full(1), 1),
    (_full(50), 7),
    (_full(50), 50),
    (WindowedSet.from_iterable(50, [3, 17, 18, 40]), 1),
    (WindowedSet.from_iterable(50, [3, 17, 18, 40]), 50),
    (WindowedSet.from_iterable(50, [0]), 1),
    (WindowedSet.from_iterable(50, [0]), 9),
    (WindowedSet.from_iterable(50, [0]), 50),
    (WindowedSet.from_iterable(50, [49]), 1),
    (WindowedSet.from_iterable(50, [49]), 9),
    (WindowedSet.from_iterable(50, [49]), 50),
])
def test_ubd_exact_edge_cases(L, min_len):
    assert upper_banach_density(L, min_len) == brute_ubd(L, min_len)


@settings(max_examples=40, deadline=None)
@given(windowed_sets(max_window=200))
def test_ubd_exact_for_every_min_len(L):
    expected = brute_ubd_every_min_len(L)
    got = [upper_banach_density(L, m) for m in range(1, L.window + 1)]
    assert got == expected


def test_ubd_window_full_set():
    L = _full(32)
    assert upper_banach_density(L, 4) == 1.0
    assert upper_density(L) == 1.0
    assert lower_density(L) == 1.0


def test_ubd_min_len_validation():
    L = _full(16)
    with pytest.raises(ValueError):
        upper_banach_density(L, 0)
    with pytest.raises(ValueError):
        upper_banach_density(L, 17)


def test_ubd_concentrated_block():
    # a solid block of length 8 inside a sparse window
    L = WindowedSet.from_iterable(64, list(range(20, 28)))
    assert upper_banach_density(L, 8) == 1.0
    assert upper_banach_density(L, 16) == pytest.approx(0.5)
    assert upper_density(L) < 0.3


# -- cost contracts (ROADMAP item 14) ------------------------------------

def _dinkelbach_rounds(monkeypatch, L, min_len) -> int:
    """The rounds of upper_banach_density's parametric search: each round
    takes one np.argmax of its gains, the certifying last round too."""
    calls, argmax = [], np.argmax
    monkeypatch.setattr(np, "argmax", lambda *a, **k: calls.append(1) or argmax(*a, **k))
    upper_banach_density(L, min_len)
    monkeypatch.undo()
    return len(calls)


def test_ubd_rounds_stay_few_over_the_criterion_8_corpus(monkeypatch):
    # measured at most 8 over delta 0.3 and 0.5, seeds 0-99, N = 10^4
    rounds = [_dinkelbach_rounds(monkeypatch, scaffold_set(seed, 10_000, delta), 16)
              for delta in (0.3, 0.5) for seed in range(100)]
    assert max(rounds) <= 8


@pytest.mark.parametrize("window, most", [(2000, 7), (10_000, 7), (200_000, 9)])
def test_ubd_rounds_grow_slowly_with_the_window(monkeypatch, window, most):
    rounds = [_dinkelbach_rounds(monkeypatch, scaffold_set(seed, window, 0.3), 16)
              for seed in range(20)]
    assert max(rounds) <= most


def test_ubd_runs_no_python_loop_over_the_window(monkeypatch):
    # 5 + 23 line events per round at both windows: no loop over N
    per_round = {}
    for window in (2000, 32_000):
        per_round[window] = []
        for seed in range(5):
            L = scaffold_set(seed, window, 0.3)
            upper_banach_density(L, 16)  # first calls run one-time setup lines
            rounds = _dinkelbach_rounds(monkeypatch, L, 16)
            events = line_events(lambda: upper_banach_density(L, 16))
            per_round[window].append(events / rounds)
    assert max(per_round[32_000]) <= max(per_round[2000]), per_round
