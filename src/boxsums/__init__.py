"""Sums with monomials, Kloosterman sums, and multiplicative-character sums
over short boxes modulo a prime, with congruence counting and empirical
verification of the associated explicit bounds.

Importing the package pins BLAS to one thread unless the caller set a count:
threaded BLAS makes the last digits of a contraction depend on the host's thread
count, and runs a thin block product many times slower on a small host.
"""

import os

# Before any submodule imports numpy, which reads these once at load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .bounds import (
    BoundValue,
    SELECTORS,
    bound_value,
    character_sum_bound_moment,
    character_sum_bound_moment_almost_all,
    count_saving_exponent,
    monomial_sum_bound_all_primes,
    monomial_sum_bound_almost_all,
    nontrivial_threshold,
)
from .characters import (
    MultChar,
    ResidueDistribution,
    additive_char,
    additive_spectrum,
    char_interval_sum,
    char_moment,
)
from .counts import (
    CountResult,
    ProductInequalityReport,
    count_monomial_pairs_brute,
    count_product_pairs_brute,
    count_product_pairs_spectral,
    product_inequality_report,
)
from .modular import (
    Box,
    ExponentVector,
    PrimeContext,
    build_context,
    is_prime,
    pow_mod,
    primitive_root,
)
from .sums import (
    PhaseWeights,
    SumResult,
    SumSpec,
    TableWeights,
    UnitWeights,
    agreement_tolerance,
    cauchy_majorant,
    character_sum_naive,
    character_sum_split,
    holder_majorant,
    kloosterman_sum,
    monomial_sum_bilinear,
    monomial_sum_naive,
    monomial_value_distribution,
)

__version__ = "0.1.0"
