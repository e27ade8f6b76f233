"""cobarlab: exact-arithmetic cubical/simplicial topology engine.

Every check computes over exact integers, with no tolerance; the only
floating-point values are the timings in reports.
"""

__version__ = "0.1.0"
