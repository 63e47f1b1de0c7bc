"""Elementary-function approximants for integer-order Bessel functions.

Evaluates I_n and J_n through weighted sums of hyperbolic or circular
cosines/sines over cosine nodes, backed by an exact integer coefficient
engine, an independent power-series oracle, and CSV/JSON reporting tools.
"""

from .approximation import (
    ApproxRequest,
    Binary64OverflowError,
    DomainError,
    default_small_z_threshold,
    evaluate,
)
from .coefficients import (
    DEFAULT_N_MAX,
    Term,
    TermExpansion,
    closed_form_coefficient,
    derive_expansion,
    double_factorial,
    expansion_coefficient,
    recurrence_table,
)
from .kernels import (
    KernelKind,
    NodeSet,
    kernel_cos,
    kernel_cosh,
    kernel_sin,
    kernel_sinh,
    make_nodes,
)
from .reference import (
    IDENTITY_TAGS,
    SeriesPolicy,
    identity_residual,
    ref_I,
    ref_J,
    tail_I0,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxRequest",
    "Binary64OverflowError",
    "DEFAULT_N_MAX",
    "DomainError",
    "IDENTITY_TAGS",
    "KernelKind",
    "NodeSet",
    "SeriesPolicy",
    "Term",
    "TermExpansion",
    "closed_form_coefficient",
    "default_small_z_threshold",
    "derive_expansion",
    "double_factorial",
    "evaluate",
    "expansion_coefficient",
    "identity_residual",
    "kernel_cos",
    "kernel_cosh",
    "kernel_sin",
    "kernel_sinh",
    "make_nodes",
    "recurrence_table",
    "ref_I",
    "ref_J",
    "tail_I0",
    "__version__",
]
