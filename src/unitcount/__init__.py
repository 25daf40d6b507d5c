"""unitcount: exact counting of matrix and linear-equation statistics
over finite subsets of finitely generated multiplicative groups."""

from .scalars import (
    Q,
    QI,
    FieldMismatchError,
    ScalarParseError,
    Scalar,
    parse_scalar,
)
from .families import (
    ElementSet,
    FamilyError,
    Geometric,
    SignedGeometric,
    GaussianUnitsScaled,
    LatticeBox,
    Explicit,
    materialize,
    tight_equation_coeffs,
)
from .equations import (
    EquationSpec,
    SubsumClassification,
    count_solutions,
    count_system_sum_squares,
    classify_by_vanishing_subsums,
)
from .bounds import system_exponent
from .matrices import (
    BudgetExceededError,
    MatrixInstance,
    SweepOptions,
    SweepHistogram,
    det,
    sweep,
    count_det,
    count_rank,
    count_charpoly,
    count_power_sums,
    fast_det2_count,
    fast_charpoly2_count,
    fast_power_sums2_count,
)

__version__ = "0.1.0"
