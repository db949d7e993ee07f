"""radonfourier: matrix Fourier and Radon-type intertwining integrals over
local fields, with Hilbert-module pairings and a verification suite.

Numerics over R and C ride on closed-form Gaussian calculus backed by
quadrature oracles; everything over Q_p is exact (rational lattice-coset
functions with cyclotomic values).
"""

__version__ = "0.1.0"

from .cyclotomic import CyclotomicValue, ExactValue  # noqa: F401
from .fields import (  # noqa: F401
    FieldDescriptor,
    abs_norm,
    add_char,
    complex_field,
    padic_field,
    padic_frac_part,
    padic_valuation,
    real_field,
)
from .functions import (  # noqa: F401
    Envelope,
    Evaluable,
    GaussianForm,
    SBFunction,
    fiber_restrict,
    function_from_json,
    integrate,
    pointwise_mul,
    translate_group,
)
from .geometry import (  # noqa: F401
    KAKFactors,
    MatrixSpace,
    b_map,
    bbar_map,
    fiber_param,
    kak,
    rho_weight,
    rho_weight_exponents,
    space_L,
    space_X,
)
from .hilbert import (  # noqa: F401
    LFunction,
    act_g,
    act_module_X,
    act_module_Xbar,
    decay_bound_check,
    inner_X,
    inner_Xbar,
    truncation_sequence,
)
from .lattices import Coset, Lattice  # noqa: F401
from .suite import SuiteConfig, explain_check, run_suite  # noqa: F401
from .transforms import (  # noqa: F401
    compose_shell_stabilized,
    fourier,
    fourier_equivariance_check,
    fourier_slice_verify,
    gamma_n,
    intertwine_I,
    intertwine_equivariance_check,
    kernel_identity_check,
    unitarity_verify,
)
