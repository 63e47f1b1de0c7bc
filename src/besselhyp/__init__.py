"""Elementary-function approximants for integer-order Bessel functions.

Evaluates I_n and J_n through weighted sums of hyperbolic or circular
cosines/sines over cosine nodes, backed by an exact integer coefficient
engine, an independent power-series oracle, and CSV/JSON reporting tools.
"""

from .approximation import (
    ApproxRequest,
    Binary64OverflowError,
    DomainError,
    evaluate,
    make_nodes,
)
from .coefficients import (
    closed_form_coefficient,
    derive_expansion,
    double_factorial,
    recurrence_table,
)
from .reference import (
    IDENTITY_TAGS,
    identity_residual,
    ref_I,
    ref_J,
    tail_I0,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxRequest",
    "Binary64OverflowError",
    "DomainError",
    "IDENTITY_TAGS",
    "closed_form_coefficient",
    "derive_expansion",
    "double_factorial",
    "evaluate",
    "identity_residual",
    "make_nodes",
    "recurrence_table",
    "ref_I",
    "ref_J",
    "tail_I0",
    "__version__",
]
