"""Exact enumeration and asymptotics of rooted chord diagrams by connectivity.

The package has three layers: a brute-force oracle over diagrams (with a
compiled census kernel and a pure-Python fallback), exact generating series
tying the connectivity classes together, and the alien-derivative calculus
that turns those series into asymptotic expansions. A final module maps
diagrams onto photon-decorated fermion paths and checks primitivity against
2-connectivity.
"""

from .alien import (
    AsymptoticImage,
    alien_compose,
    alien_connected,
    alien_inverse,
    alien_product,
    alien_two_connected,
    exp_with_constant,
    verify_derivation_chain,
)
from .asymptotics import (
    HighPrecisionDecimal,
    const_e,
    const_sqrt_two_pi,
    error_table,
    estimate,
    gamma_scale,
    probability_check,
)
from .gf import (
    double_factorial_odd,
    series_all_diagrams,
    series_connected,
    series_connectivity_one,
    series_family,
    series_two_connected,
    series_two_connected_sequences,
    verify_derivative_identity,
)
from .oracle import (
    CapExceededError,
    ChordDiagram,
    Decomposition,
    DecompositionCase,
    Reason,
    census_backend,
    class_census,
    decompose_connected,
    enumerate_diagrams,
    find_reasons_connectivity1,
    is_connected,
    is_k_connected,
    k_connected_census,
    recompose,
)
from .qft import (
    Action,
    PHI3,
    QedGraph,
    chord_to_qed,
    find_subdivergences,
    is_primitive,
    loop_number,
    partition_function,
    qed_to_chord,
    verify_bijection,
)
from .series import PowerSeries, Rational, ReversionError

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AsymptoticImage",
    "CapExceededError",
    "ChordDiagram",
    "Decomposition",
    "DecompositionCase",
    "HighPrecisionDecimal",
    "PHI3",
    "PowerSeries",
    "QedGraph",
    "Rational",
    "Reason",
    "ReversionError",
    "alien_compose",
    "alien_connected",
    "alien_inverse",
    "alien_product",
    "alien_two_connected",
    "census_backend",
    "chord_to_qed",
    "class_census",
    "const_e",
    "const_sqrt_two_pi",
    "decompose_connected",
    "double_factorial_odd",
    "enumerate_diagrams",
    "error_table",
    "estimate",
    "exp_with_constant",
    "find_reasons_connectivity1",
    "find_subdivergences",
    "gamma_scale",
    "is_connected",
    "is_k_connected",
    "is_primitive",
    "k_connected_census",
    "loop_number",
    "partition_function",
    "probability_check",
    "qed_to_chord",
    "recompose",
    "series_all_diagrams",
    "series_connected",
    "series_connectivity_one",
    "series_family",
    "series_two_connected",
    "series_two_connected_sequences",
    "verify_bijection",
    "verify_derivation_chain",
    "verify_derivative_identity",
]
