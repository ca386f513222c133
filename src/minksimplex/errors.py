"""Exception types shared across the package, and the base of its
immutable records."""


class FrozenRecord:
    """An immutable record: each subclass sets its fields once, in its
    own __init__, through __dict__.  Records are == when they are of one
    class with == fields, and hash by their fields in the order __init__
    set them."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


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
