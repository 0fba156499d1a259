"""persym: exact rearrangements, nonlocal energies and periodic fractional
seminorms on step functions, with a property-test harness for the
rearrangement inequalities they satisfy."""

__version__ = "0.1.0"

from .errors import PersymError
from .grid import (
    Grid1D,
    GridFunctionND,
    StepFunction,
    absolute_value,
    equimeasurable,
    layer_cake_value,
    load_function,
    refine,
    save_function,
    superlevel_measure,
)
from .functionals import (
    ConvexJ,
    ab_decomposition,
    energy_circle,
    energy_euclidean,
    j_library,
    normalize,
    split_plus_minus,
)
from .kernels import (
    GaussianKernel,
    HeatKernel,
    KernelWeights,
    LaplaceConfig,
    PeriodizedRieszKernel,
    StepKernelCircle,
    StepKernelLine,
    check_kernel_monotone,
    gaussian_weights_interval,
    heat_kernel_periodic,
    heat_weights_periodic,
    laplace_quadrature,
    riesz_weights_1d,
    riesz_weights_nd,
)
from .rearrange import (
    composition_commutes_check,
    cylindrical_rearrange,
    periodic_rearrange_1d,
    periodic_rearrange_nd,
    placement_order,
    rearrange_set_cylindrical,
    rearrange_set_periodic,
    symmetric_decreasing_1d,
)
from .seminorm import (
    SeminormParams,
    SeminormResult,
    coarea_identity_check,
    fractional_perimeter,
    gagliardo_periodic,
    gagliardo_periodic_direct,
    gagliardo_periodic_laplace,
)
from .verify import (
    EqualityClass,
    VerificationReport,
    check_nonexpansivity_circle,
    check_nonexpansivity_euclidean,
    check_polya_cylindrical,
    check_polya_periodic,
    check_riesz_circle,
    classify_equality,
    exhaustive_oracle_circle,
    run_suite,
)
