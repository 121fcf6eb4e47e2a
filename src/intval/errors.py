"""Exception types shared across the library."""

from __future__ import annotations


class IntvalError(Exception):
    """Base class for all errors raised by this library."""


class PointNotInSpace(IntvalError):
    """A point identifier does not belong to the poset it was used with."""


class SpaceMismatch(IntvalError):
    """Two objects that must live on the same poset live on different ones."""


class NotMonotone(IntvalError):
    """A map required to be monotone (or antitone) fails the order check."""


class ZeroMeasure(IntvalError):
    """Upper integrals and derived functionals require a non-zero measure."""


class UnboundedMeasure(IntvalError):
    """Upper integrals and derived functionals require finite total mass."""


class OutOfRange(IntvalError):
    """An argument lies outside the unit interval (or misses it entirely)."""


class NonEvaluablePiece(IntvalError):
    """A declared-monotone piece is not monotone in the declared direction.

    The caller must split the offending segment at the turning point (which
    may require choosing a nearby rational) so each piece is monotone.
    """


class DepthCapExceeded(IntvalError):
    """Dyadic refinement hit the depth cap before reaching the width target.

    Carries the best enclosure computed so far and the depth it was
    computed at, so callers can report a partial result.
    """

    def __init__(self, message: str, enclosure=None, depth: int | None = None):
        super().__init__(message)
        self.enclosure = enclosure
        self.depth = depth


class ParseError(IntvalError):
    """A literal failed to parse; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class LiteralTooLarge(ParseError):
    """A literal exceeds one of the parsers' size caps (see literals)."""
