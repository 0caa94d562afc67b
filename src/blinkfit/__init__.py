"""Blinking-trace synthesis and on/off lifetime estimation.

Simulates two-state telegraph fluorescence traces with exactly known
switching lifetimes and extracts those lifetimes back out of scarce data
with three estimators: a Levenberg-Marquardt exponential fit, a supervised
multi-feature regression, and an unsupervised genetic algorithm over
K-means++ clusterings.  A seeded benchmark harness compares the three.
Each name is imported from the module that defines it, e.g. blinkfit.ga.
"""

__version__ = "0.1.0"
