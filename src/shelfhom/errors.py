"""Structured error types shared across the package.

Every error the library raises deliberately derives from ShelfHomError.  A
new class must derive from one of its two category bases, InputError (CLI
exit 2) or ResourceCap (exit 3); only an internal assertion failure, which
signals a bug, derives from ShelfHomError directly (exit 4).
"""


class ShelfHomError(Exception):
    """Base class for all structured errors raised by shelfhom."""
    exit_code = 4


class InputError(ShelfHomError):
    """Malformed input, or a law the computation needs fails."""
    exit_code = 2


class ResourceCap(ShelfHomError):
    """A configured size or resource guard refused the computation."""
    exit_code = 3


# What the CLI reports as one JSON line and exit_code(), not a traceback.
REPORTED = (ShelfHomError, AssertionError)


def exit_code(exc: BaseException) -> int:
    return getattr(exc, "exit_code", ShelfHomError.exit_code)


class SizeMismatch(InputError):
    """Tables that should share one carrier size do not."""


class OutOfRange(InputError):
    """An element or index lies outside the carrier / basis range."""


class EmptyList(InputError):
    """An operation that needs at least one item got none."""


class DistributivityViolation(InputError):
    """Self-distributivity fails; carries the first violating triple."""

    def __init__(self, x, y, z, lhs, rhs):
        self.x, self.y, self.z = x, y, z
        self.lhs, self.rhs = lhs, rhs
        super().__init__(
            f"({x}*{y})*{z} = {lhs} but ({x}*{z})*({y}*{z}) = {rhs}"
        )


class MutualDistributivityViolation(InputError):
    """Mutual distributivity fails for the operation pair (k, l)."""

    def __init__(self, k, l, x, y, z, lhs, rhs):
        self.k, self.l = k, l
        self.x, self.y, self.z = x, y, z
        self.lhs, self.rhs = lhs, rhs
        super().__init__(
            f"ops ({k},{l}): ({x} *_{k} {y}) *_{l} {z} = {lhs} "
            f"but ({x} *_{l} {z}) *_{k} ({y} *_{l} {z}) = {rhs}"
        )


class SpecPreconditionFailed(InputError):
    """A family constructor's eager precondition does not hold."""


class RetractionNotIdentityOnA(InputError):
    """A retraction map fails to restrict to the identity on the base."""


class NotASpindle(InputError):
    """Operation requires x*x = x for all x."""


class NotInvertible(InputError):
    """Some right translation x -> x*y is not a bijection."""


class ParseError(InputError):
    """Malformed input document."""


class DegreeNegative(InputError):
    """Chain degree must be nonnegative."""


class DegreeOutOfRange(InputError):
    """Requested degree is not covered by the built complex."""


class ChainMapViolation(InputError):
    """Chain-map precondition pairing is wrong, or commuting fails."""


class DegenerateNotSubcomplex(InputError):
    """The requested differential does not preserve degenerate chains."""


class PracticalSizeLimit(ResourceCap):
    """Carrier size beyond the factorial/backtracking guard."""


class MemoryCapExceeded(ResourceCap):
    """A chain complex would exceed the configured basis-element cap."""


class CapExceeded(ResourceCap):
    """A scan or complex construction hit its configured cap."""


class BoundExceeded(ResourceCap):
    """Closure grew past max_ops; carries the partial result."""

    def __init__(self, message, partial):
        self.partial = partial
        super().__init__(message)


class DDNotZero(ShelfHomError):
    """d o d != 0 while building a complex; signals an implementation bug."""


class FaceNotGenerated(ShelfHomError):
    """A face of a generated simplex was not generated; signals a bug."""
