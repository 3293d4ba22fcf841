"""M-partitions: minimal partitions whose sub-multiset sums cover 0..m.

Verification and witness construction live in :mod:`mpart.core`, exhaustive
search and the subset-sum oracle in :mod:`mpart.enumeration`, the counting
recurrence and series machinery in :mod:`mpart.counting`, and the ``mpart``
command in :mod:`mpart.cli`.  Import each name from its module.
"""

__version__ = "0.1.0"
