"""Exceptions shared across the package."""

import functools
import sys


class CcsptError(Exception):
    """Base class for all library errors."""


class ValidityError(CcsptError):
    """An expression violates the theta/psi free-variable scope rule."""


class InvalidResult(ValidityError):
    """A substitution produced an invalid expression."""


class ParseError(CcsptError):
    """Concrete-syntax error with position information."""

    def __init__(self, message, line=None, col=None, expected=None):
        self.line = line
        self.col = col
        self.expected = expected
        where = "" if line is None else f" at {line}:{col}"
        hint = "" if not expected else f" (expected {expected})"
        super().__init__(f"{message}{where}{hint}")


class DuplicateEquation(ParseError):
    """A specification defines the same variable twice."""


class UnboundReference(ParseError):
    """A recursion call names an unknown specification or variable."""


class UnfoldingDiverged(CcsptError):
    """A recursive specification unfolded past the fuse without a guard."""


class StateBudgetExceeded(CcsptError):
    """Exploration or relation tables grew past the configured limit."""

    def __init__(self, count, limit=None):
        self.count = count
        self.limit = limit
        super().__init__(f"state budget exceeded: {count}" +
                         (f" > {limit}" if limit is not None else ""))


class LabelUniverseMismatch(CcsptError):
    """The two systems under comparison do not share a label universe."""


class SideConditionViolated(CcsptError):
    """An axiom schema was instantiated against its side condition."""


class FragmentUnsupported(CcsptError):
    """No distinguishing formula or revalidation for this fragment or relation."""


class TermTooDeep(CcsptError):
    """A term or formula is nested deeper than the recursion limit allows."""


def depth_guarded(fn):
    """Re-raise a ``RecursionError`` out of ``fn`` as ``TermTooDeep``.

    For entry points only: a recursive function wrapped at every level
    would spend twice the stack per level of nesting.
    """
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except RecursionError:
            raise TermTooDeep(
                f"{fn.__name__}: input nested too deeply for the recursion "
                f"limit ({sys.getrecursionlimit()})") from None
    return guarded
