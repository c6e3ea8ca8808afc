"""Median normalization shared by the bench gates.

A ratio of a fresh measurement to a committed one mixes two things:
how fast this machine is next to the one that recorded the entry, and
how much the code itself changed. The median ratio over one run's
metrics estimates the first, so dividing every ratio by it leaves the
second. A uniform change of every metric cannot trip a gate built on
this (it is indistinguishable from a faster or slower machine).
"""

import statistics


def normalize(ratios):
    """Return (median, {name: ratio / median}) for a dict of ratios."""
    median = statistics.median(ratios.values())
    return median, {name: r / median for name, r in ratios.items()}
