"""Balanced words as optimizers, checked by brute force.

The package generates mechanical (Sturmian) words and verifies, testbed by
testbed, that they optimize five unrelated objectives: cyclic binary
products, the convex order on doubling-map orbit measures, admission-control
queue costs, max-plus heap growth rates, and spectral radii of matrix
products, plus the energy of electrons on a ring.  Every claim is backed by
an exhaustive or high-precision check at desk scale; ``sturmlab verify-all``
runs the whole battery.
"""

from .words import (
    ContinuedFraction,
    MechanicalSpec,
    Orbit,
    balanced_orbit,
    balance_witness,
    canonical_rotation,
    complexity,
    enumerate_orbits,
    factor_set,
    format_fraction,
    is_balanced,
    mechanical_word,
    minimal_period,
    one_length,
    one_ratio,
    parse_slope,
    rotations,
    standard_words,
    symbol_stream,
)
from .cyclic import (
    binary_value,
    orbit_product,
    scan_coprime_pairs,
    verify_balanced_product_maximum,
)
from .measures import (
    DiscreteMeasure,
    convex_order_witness,
    maximize_over_orbits,
    mixture,
    orbit_measure,
    peak_objective_scan,
    sturmian_measure,
    verify_sturmian_least,
)
from .multimodular import (
    LatticeFunction,
    check_multimodular,
    multimodular_basis,
    window_average,
)
from .queueing import (
    QueueConfig,
    QueueSummary,
    admission_competition,
    load_queue_config,
    random_admission_word,
    simulate_queue,
)
from .heaps import (
    HeapModel,
    Piece,
    best_balanced_schedule,
    cycle_rate,
    default_model,
    load_model,
    max_cycle_mean,
    min_rate_exhaustive,
)
from .jsr import (
    ALPHA_STAR_DECIMAL,
    A0,
    A1,
    Mat2,
    PrecisionContext,
    PrecisionError,
    alpha_inverse,
    alpha_star_tau,
    jsr_bounds,
    matching_digits,
    optimal_ratio_scan,
    ratio_staircase,
    scaled_pair,
    standard_matrices,
    tau_sequence,
)
from .wigner import (
    Potential,
    anti_coulomb,
    coulomb,
    default_potentials,
    exponential_decay,
    ground_state,
    inverse_power,
    is_convex_decreasing,
    screened,
)

__version__ = "0.1.0"
