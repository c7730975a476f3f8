"""Verdicts of the compare command."""

from perfbench.compare import verdict

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_improved_needs_nine_tenths_of_pairs_and_a_gap():
    change = [p * 0.8 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "improved"
    assert verdict(PARENT, [p * 1.25 for p in PARENT], "higher",
                   0.1) == "improved"


def test_too_few_pairs_cannot_improve():
    assert verdict(PARENT[:5], [0.8] * 5, "lower", 0.1) == "within bound"


def test_small_change_is_within_bound():
    change = [p * 1.03 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "within bound"


def test_worse_beyond_the_bound():
    change = [p * 1.2 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "worse"
    assert verdict(PARENT, [p * 0.8 for p in PARENT], "higher",
                   0.1) == "worse"


def test_wide_spread_is_unresolved():
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert verdict(noisy, [v * 1.2 for v in noisy], "lower",
                   0.1) == "unresolved"


def test_wide_spread_but_every_change_run_better_resolves():
    noisy = [1.6, 2.4, 1.7, 2.3, 2.0, 1.8, 2.2, 1.9, 2.1, 2.0]
    change = [0.5, 0.6, 0.55, 0.52, 0.58, 0.51, 0.57, 0.5, 0.6, 0.59]
    # wins every pair by more than the parent's spread
    assert verdict(noisy, change, "lower", 0.1) == "improved"
    # fewer than ten pairs: no claim, but not unresolved either
    assert verdict(noisy[:4], change[:4], "lower", 0.1) == "within bound"
