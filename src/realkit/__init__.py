"""Desk-scale realisability checks for second-order data of random sets and
point processes on finite carriers: either an explicit realising mixture or
an exactly verified infeasibility certificate, plus integrability checkers
and contact-distribution tools."""

__version__ = "0.1.0"

from .contact import StepCdf, check_two_point, construct_two_point_set, invert_cdf, monte_carlo_contact
from .errors import (
    CapExceeded,
    Infeasible,
    InvalidBeta,
    InvalidGroup,
    InvalidInstance,
    InvalidPsi,
    RealkitError,
)
from .lp import Certificate
from .metric import (
    Configuration,
    FiniteMetricSpace,
    close_pair_count,
    gamma_min_pairs,
    close_pair_envelope,
    make_space,
    packing_number,
    packing_set,
    spread_configuration,
    validate_metric,
)
from .pp import (
    ConfigMixture,
    CorrelationTarget,
    check_hardcore_support,
    enumerate_configs,
    positivity_screen,
    pp_moments,
    realize_pp,
)
from .qubo import evaluate_g, qubo_min
from .regularity import (
    AtomicMeasure2D,
    PsiFunction,
    chi_hc_integral,
    hardcore_split_check,
    packing_integral,
    psi_admissibility,
    reduced_measure_check,
    shell_series,
)
from .setrealize import (
    SubsetMixture,
    TwoPointTarget,
    moments_of_mixture,
    realize_subsets,
    symmetrize,
    verify_certificate,
)
