"""cobalt: exact-arithmetic Schur calculus, formal group laws, and
Landweber-style regularity checking.

Everything here computes over Z or Q, with int coefficients where values
are integral and fractions.Fraction elsewhere; no floats, no numerical
tolerance anywhere.
"""

__version__ = "0.1.0"

from .errors import CobaltError
from .rings import (
    GenSpec,
    GradedComponentReport,
    Polynomial,
    Ring,
    graded_component,
    laurent_ring,
    load_presentation,
    parse_expression,
    polynomial_ring,
)
from .series import TruncSeries

__all__ = [
    "CobaltError",
    "GenSpec",
    "GradedComponentReport",
    "Polynomial",
    "Ring",
    "TruncSeries",
    "graded_component",
    "laurent_ring",
    "load_presentation",
    "parse_expression",
    "polynomial_ring",
    "__version__",
]
