"""Exception types shared across the toolkit.

Every error raised by scatlin is a subclass of ScatlinError, so callers can
catch the whole family with one except clause.  The CLI maps UsageError to
exit code 2, InternalInvariant (a bug signal) to exit code 3, and every other
ScatlinError, MathMismatch and ClassificationGap included, to exit code 1.
Only HypothesisViolated, which says that a lemma does not apply to its
input, is reported as "skipped" (by `scatlin lemmas`) instead of as an error.
"""


class ScatlinError(Exception):
    pass


class NotPrime(ScatlinError):
    """The requested characteristic is not a prime number."""


class TooLarge(ScatlinError):
    """The requested field or scan exceeds the configured desk-scale budget."""


class NoIrreducibleFound(ScatlinError):
    """The modulus scan ran out of candidates; indicates a scan bug."""


class DivisionByZero(ScatlinError, ZeroDivisionError):
    pass


class CtxMismatch(ScatlinError):
    """Two operands belong to different field contexts."""


class BadSubfield(ScatlinError):
    """Subfield index m does not divide 6."""


class ParityMismatch(ScatlinError):
    """h-enumeration variant inconsistent with the parity of q."""


class InvalidParameter(ScatlinError):
    """A parameter violates its defining condition: a family parameter, or a
    resume checkpoint that was made for another field, f or g."""


class HypothesisViolated(ScatlinError):
    """An auxiliary-lemma check was invoked outside its hypotheses."""


class ClassificationGap(ScatlinError):
    """A polynomial root matched none of the listed cases; never expected."""


class ZeroParameter(ScatlinError):
    pass


class PreconditionFailed(ScatlinError):
    """A geometric precondition (disjointness / dimension bound) broke."""


class BudgetExceeded(ScatlinError):
    """An exhaustive scan was stopped by its operation budget."""


class DegenerateInput(ScatlinError):
    """The map pair {id, f} is linearly dependent; search is meaningless."""


class ZeroMap(ScatlinError):
    pass


class UsageError(ScatlinError):
    pass


class MathMismatch(ScatlinError):
    """A reproduction run disagreed with the expected value."""


class InternalInvariant(ScatlinError):
    """An internal consistency check failed; indicates a bug, not bad input.

    Raised explicitly instead of by ``assert``, so the check also runs under
    ``python -O``.
    """
