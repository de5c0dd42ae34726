"""Shared exception types, and the hook that checks records on construction."""

import functools


class SubmultError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SubmultError):
    """Syntax or name error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionMismatchError(SubmultError):
    """Operands live in rings of different dimension."""


class ValidationError(SubmultError):
    """Input violates a documented precondition."""


class CapExceededError(SubmultError):
    """A resource cap stopped the computation before an answer was reached."""

    def __init__(self, message: str, cap: str):
        super().__init__(message)
        self.cap = cap


class ConsistencyError(SubmultError):
    """Two independent computations of the same quantity disagree."""


class CertificationError(SubmultError):
    """A multiplier certificate failed re-verification."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def checked(cls):
    """Make every construction of the NamedTuple ``cls`` run ``cls._check``.

    The constructor, copy and unpickling call ``__new__``, but ``_make``,
    which ``_replace`` calls, builds the tuple with ``tuple.__new__``, so
    both are wrapped.
    """

    def then_check(build):
        @functools.wraps(build)
        def built(klass, *args, **kwargs):
            record = build(klass, *args, **kwargs)
            record._check()
            return record

        return built

    cls.__new__ = staticmethod(then_check(cls.__new__))
    cls._make = classmethod(then_check(cls._make.__func__))
    return cls
