"""Palindrome enumeration, square-free censuses, quadratic Kloosterman sums,
and oscillatory-integral verification experiments."""

from .arith import (
    factorize,
    is_probable_prime,
    is_squarefree,
    kth_residue_solutions,
    mobius,
)
from .census import (
    CensusRecord,
    census_up_to,
    density_constant,
    equidistribution_discrepancy,
    q_fixed_length,
    q_star_direct,
    q_star_mobius,
    s_b,
)
from .digits import is_palindrome, to_digits
from .expsum import (
    ExpSumParams,
    count_critical_points,
    k2_full,
    k2_q_average,
    k2_stationary_phase,
    poisson_check,
)
from .harness import BoundFit, fit_prop1, fit_prop2_prop3, weyl_vdc_check
from .oscillate import (
    PSI,
    PhaseSpec,
    SmoothBump,
    check_first_derivative_bound,
    check_second_derivative_bound,
    fourier_transform,
    oscillatory_integral,
)
from .streams import stream_fixed_length, stream_up_to

__version__ = "0.1.0"
