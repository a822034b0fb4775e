"""Medians on finite distributive lattices, with two working instantiations.

The core fact: if a family of elements of a finite distributive lattice
all satisfy a predicate whose satisfying set is closed under meet and
join, then so does every coordinatewise order statistic of the family.
`lattice_median` implements the construction over count vectors,
`order_core` supplies the Birkhoff encoding that justifies the vector
view on its one order type, `Poset` (built from cover pairs or from
count vectors, and checked to be a distributive lattice by its Birkhoff
round trip), and
`stable_matching` / `market_clearing` instantiate it on two concrete
lattices. Stable matchings are enumerated by walking rotations
up from the men-optimal matching; the brute-force search over perfect
matchings is kept in the tests as the oracle.
"""

from .errors import LatmedError
from .lattice_median import (
    check_median_theorem,
    check_regular,
    generalized_medians,
    medians_via_meet_join,
)
from .order_core import (
    Poset,
    all_ideals,
    birkhoff_round_trip,
    chain_partition,
    explicit_lattice,
    format_vector,
    join,
    join_irreducibles,
    meet,
    parse_vector,
    poset_from_covers,
)
from .verify import VerifyConfig, verify_suite

__all__ = [
    "LatmedError",
    "Poset",
    "VerifyConfig",
    "all_ideals",
    "birkhoff_round_trip",
    "chain_partition",
    "check_median_theorem",
    "check_regular",
    "explicit_lattice",
    "format_vector",
    "generalized_medians",
    "join",
    "join_irreducibles",
    "medians_via_meet_join",
    "meet",
    "parse_vector",
    "poset_from_covers",
    "verify_suite",
]

__version__ = "0.1.0"
