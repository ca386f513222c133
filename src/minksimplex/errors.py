"""Exception types shared across the package."""


class MinksimplexError(Exception):
    """Base class for all package errors."""


class MixedModeError(MinksimplexError, TypeError):
    """Exact rationals and floats met in one arithmetic operation."""


class DegenerateInputError(MinksimplexError, ValueError):
    """Input violates a nondegeneracy precondition (repeated points,
    zero normals, affinely dependent simplex vertices, ...)."""


class DimensionError(MinksimplexError, ValueError):
    """Operands live in incompatible or unsupported dimensions."""


class ConfigError(MinksimplexError, ValueError):
    """A MINKSIMPLEX_* environment setting is not a positive integer."""


class ResourceCapError(MinksimplexError, RuntimeError):
    """A configured size cap would be exceeded (facet count, dimension,
    enumeration width, elimination blow-up)."""


class NonConvergenceError(MinksimplexError, RuntimeError):
    """An iterative float-mode solver failed to reach its tolerance."""


class VerificationError(MinksimplexError, RuntimeError):
    """A mandatory internal cross-check failed; indicates a bug, not bad input."""
