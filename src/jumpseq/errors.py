"""Exception types shared across the library.

Everything that can go wrong falls in one of four buckets: bad input data,
a division that was promised to be exact but is not, a computation that
needs more valuation data than the spec provides, and a runaway symbolic
computation hitting the size ceiling.
"""

from __future__ import annotations


class JumpseqError(Exception):
    """Base class for all library errors."""


class InvalidSpecError(JumpseqError):
    """The valuation defining data is internally inconsistent."""


class DivisibilityError(JumpseqError):
    """An exact polynomial division left a nonzero remainder.

    The offending remainder is attached as ``remainder`` when available.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class InsufficientDepthError(JumpseqError):
    """A value or residue cannot be certified at the current depth.

    ``extra_depth`` is the minimal number of additional (p, q) pairs the
    defining data would need before the computation can be retried: one
    for every error raised, since each asks for the pair past the last.
    """

    extra_depth = 1


class ResourceLimitError(JumpseqError):
    """A symbolic computation exceeded its configured size ceiling."""
