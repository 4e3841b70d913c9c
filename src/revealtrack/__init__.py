"""Probabilistic finite-state automata with state reveals.

Exact belief filtering, deferred-normalization joint and marginal linear
trackers with their adversarial decay constructions, a generalized-
Householder permutation recurrence, and a transcript dataset generator for
next-token-prediction training on state tracking.
"""

__version__ = "0.1.0"
