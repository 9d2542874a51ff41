"""Exception hierarchy shared by all qdyson modules."""


class QDysonError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(QDysonError, ValueError):
    """Operands disagree on the number of variables."""


class UsageError(QDysonError, ValueError):
    """Malformed input: a CLI flag, or a delta, shift, n or a the library refuses."""


class DenominatorVanishes(QDysonError, ZeroDivisionError):
    """A substitution made every factor of a denominator atom vanish."""


class DuplicateNode(QDysonError, ValueError):
    """An interpolation grid contains a repeated node."""


class InternalInconsistency(QDysonError):
    """A mathematical invariant the pipeline relies on was violated.

    This always signals a bug (or a false assumption about the underlying
    identities), never bad user input.
    """


class MixedSign(InternalInconsistency):
    """An affine form needed a definite generic sign but had mixed signs."""


class DuplicatePoint(InternalInconsistency):
    """Two enumerated evaluation points coincide symbolically."""
