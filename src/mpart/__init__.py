"""M-partitions: minimal partitions whose sub-multiset sums cover 0..m.

Verification and witness construction live in :mod:`mpart.core`, exhaustive
search and the subset-sum oracle in :mod:`mpart.enumeration`, the counting
recurrence and series machinery in :mod:`mpart.counting`, and the ``mpart``
command in :mod:`mpart.cli`.
"""

from .core import (
    DomainError,
    ExtensionRange,
    PartBounds,
    Partition,
    can_extend,
    extension_range_m1,
    extension_range_m12,
    generate_alg1,
    generate_alg2,
    generate_alg3,
    is_m_partition,
    is_weak_m_partition,
    largest_part_bounds,
    num_parts,
)
from .counting import (
    BinarySeries,
    CountTable,
    a,
    a_even_pairing_check,
    a_simple,
    a_upper_half_via_b,
    b,
    build_table,
    defect,
    gf_coefficients,
    in_upper_half,
)
from .enumeration import (
    SumReachability,
    count_by_enumeration,
    iter_m_partitions,
    oracle_is_weak,
    subset_sums,
)

__version__ = "0.1.0"

__all__ = [
    "BinarySeries",
    "CountTable",
    "DomainError",
    "ExtensionRange",
    "PartBounds",
    "Partition",
    "SumReachability",
    "a",
    "a_even_pairing_check",
    "a_simple",
    "a_upper_half_via_b",
    "b",
    "build_table",
    "can_extend",
    "count_by_enumeration",
    "defect",
    "extension_range_m1",
    "extension_range_m12",
    "generate_alg1",
    "generate_alg2",
    "generate_alg3",
    "gf_coefficients",
    "in_upper_half",
    "is_m_partition",
    "is_weak_m_partition",
    "iter_m_partitions",
    "largest_part_bounds",
    "num_parts",
    "oracle_is_weak",
    "subset_sums",
    "__version__",
]
