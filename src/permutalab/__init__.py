"""Numerical laboratory for permutation-invariant limit theorems.

Exact Prohorov/transport metrics on atomic measures, lacunary
trigonometric Monte Carlo, windowed limit-theorem objects, and
conditionally-i.i.d. mixture simulation, all with reproducible seeding.
"""

__version__ = "0.1.0"

from .errors import LabError
from .measures import (
    DiscreteMeasure,
    MixedNormal,
    empirical_measure,
)
from .metrics import (
    ks_distance,
    mixture_bound_check,
    prohorov_distance,
    prohorov_oracle,
    strassen_coupling,
)
from .sequences import (
    IndexSequence,
    Permutation,
    apply_permutation,
    block_interleave_permutation,
    check_erdos,
    check_hadamard,
    count_diophantine,
    diophantine_growth_scan,
    gen_erdos,
    gen_hadamard,
    permutation,
    random_permutation,
)
from .lacunary import clt_sample, lil_trajectory
from .framework import (
    RegularLimitTheorem,
    limit_convergence_check,
    simulate_fk,
)
from .exchangeable import (
    DrawnSequence,
    ExchangeableModel,
    PerturbSpec,
    PermutationInvarianceReport,
    draw_sequence,
    model_from_json,
    model_to_json,
    permuted_statistic,
    strong_law_trajectory,
    permutation_invariance_check,
)

__all__ = [
    "LabError",
    "DiscreteMeasure",
    "MixedNormal",
    "empirical_measure",
    "ks_distance",
    "mixture_bound_check",
    "prohorov_distance",
    "prohorov_oracle",
    "strassen_coupling",
    "IndexSequence",
    "Permutation",
    "apply_permutation",
    "block_interleave_permutation",
    "check_erdos",
    "check_hadamard",
    "count_diophantine",
    "diophantine_growth_scan",
    "gen_erdos",
    "gen_hadamard",
    "permutation",
    "random_permutation",
    "clt_sample",
    "lil_trajectory",
    "RegularLimitTheorem",
    "limit_convergence_check",
    "simulate_fk",
    "DrawnSequence",
    "ExchangeableModel",
    "PerturbSpec",
    "PermutationInvarianceReport",
    "draw_sequence",
    "model_from_json",
    "model_to_json",
    "permuted_statistic",
    "strong_law_trajectory",
    "permutation_invariance_check",
]
