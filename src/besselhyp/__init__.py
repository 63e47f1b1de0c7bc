"""Elementary-function approximants for integer-order Bessel functions.

Evaluates I_n and J_n through weighted sums of hyperbolic or circular
cosines/sines over cosine nodes, backed by an exact integer coefficient
engine, an independent power-series oracle, and CSV/JSON reporting tools.

``import besselhyp`` loads ``approximation`` and ``coefficients`` alone.  The
oracle's names (``ref_I``, ``ref_J``, ``tail_I0``, ``identity_residual``,
``IDENTITY_TAGS``) load ``besselhyp.reference`` on their first access, so a
caller that only evaluates never compiles the oracle; ``dir(besselhyp)``
lists them before that without loading it.
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

_ORACLE_NAMES = frozenset({"IDENTITY_TAGS", "identity_residual", "ref_I", "ref_J", "tail_I0"})


def __getattr__(name: str):
    # Called only for a name not yet bound: an oracle name imports the oracle
    # (which binds `reference` here) and is then read from it.
    if name in _ORACLE_NAMES:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # The bound names and the oracle's, which __getattr__ serves unbound.
    return sorted(globals().keys() | _ORACLE_NAMES)
