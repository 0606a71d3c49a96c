"""Exception types shared across the toolkit.

Every error raised by scatlin is a subclass of ScatlinError, so callers can
catch the whole family with one except clause.  The CLI maps UsageError to
exit code 2, InternalInvariant (a bug signal) to exit code 3, and every other
ScatlinError, ClassificationGap included, to exit code 1.  A search that
cannot come up empty, such as the modulus and generator search of a field,
raises InternalInvariant when it does.
Only HypothesisViolated, which says that a lemma does not apply to its
input, is reported as "skipped" (by `scatlin lemmas`) instead of as an error.
"""


class ScatlinError(Exception):
    pass


class NotPrime(ScatlinError):
    """The requested characteristic is not a prime number."""


class TooLarge(ScatlinError):
    """The requested field has more than 2^24 elements (or s < 1); only
    Field.__init__ raises it, before any table is built."""


class DivisionByZero(ScatlinError, ZeroDivisionError):
    pass


class CtxMismatch(ScatlinError):
    """Two operands belong to different field contexts."""


class BadSubfield(ScatlinError):
    """Subfield index m does not divide 6."""


class InvalidParameter(ScatlinError):
    """A parameter violates its defining condition, such as a family
    parameter or an unknown U^4 variant."""


class HypothesisViolated(ScatlinError):
    """An auxiliary-lemma check was invoked outside its hypotheses."""


class ClassificationGap(ScatlinError):
    """A polynomial root matched none of the listed cases; never expected."""


class PreconditionFailed(ScatlinError):
    """A geometric precondition (disjointness / dimension bound) broke."""


class BudgetExceeded(ScatlinError):
    """rank_distribution's budget is below its fixed number of cross-checks."""


class DegenerateInput(ScatlinError):
    """f is a multiple of the identity (f = 0 included), so the map pair
    {id, f} is dependent: U_f is a line with no projection vertex, and C_f
    has q^6 maps instead of q^12."""


class UsageError(ScatlinError):
    pass


class InternalInvariant(ScatlinError):
    """An internal consistency check failed; indicates a bug, not bad input.

    Raised explicitly instead of by ``assert``, so the check also runs under
    ``python -O``.
    """
