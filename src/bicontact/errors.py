"""Exception types shared across the workbench.

Everything raised on a *mathematical* failure (as opposed to a plain bug)
derives from :class:`BicontactError`, so callers can catch one base class.
"""


class BicontactError(Exception):
    """Base class for all workbench-specific failures."""


class DomainError(BicontactError):
    """An evaluation left its domain of validity.

    For elementary functions this carries the function tag and the offending
    base-point value; coarser restrictions (coordinate ranges, degenerate
    initial data) pass a single descriptive message instead.
    """

    def __init__(self, fn: str, value: float | None = None):
        self.fn = fn
        self.value = value
        if value is None:
            super().__init__(fn)
        else:
            super().__init__(f"{fn}: argument value {value!r} outside domain")


class BudgetError(BicontactError):
    """Ran out of derivative order: an exterior derivative was requested of
    data that no longer carries first-order information.

    ``stage`` names the pipeline step that exhausted the budget; ``needed``,
    when known, is the truncation order the whole command needs.
    """

    def __init__(self, stage: str, needed: int | None = None):
        self.stage = stage
        self.needed = needed
        hint = ("re-run with a higher truncation order" if needed is None
                else f"the command needs truncation order {needed}")
        super().__init__(
            f"derivative-order budget exhausted at stage {stage!r}; {hint}")


class SingularVolumeError(BicontactError):
    """A top-degree form used as a denominator is (numerically) zero."""


class ContactFailure(BicontactError):
    """A 1-form that must be contact has omega ^ d(omega) = 0 at some point."""


class MixedEpsilon(BicontactError):
    """The orientation sign epsilon changed inside one sample region."""


class AmbiguousCase(BicontactError):
    """Sampled points disagree about the case classification.

    ``points`` lists the offending sample points.
    """

    def __init__(self, message: str, points=()):
        self.points = list(points)
        super().__init__(message + (f" (offending points: {self.points})" if self.points else ""))


class CriticalPoint(BicontactError):
    """dC vanishes where the adaptation needs it nonzero."""


class DegenerateB(BicontactError):
    """B1^2 + B2^2 is numerically zero where the case-2 rescale needs it positive."""


class DegenerateTranslation(BicontactError):
    """The 2x2 system fixing the case-1 translation is singular
    (its determinant A3^2 - C^2 - eps is numerically zero)."""


class BranchError(BicontactError):
    """A square-root branch (sign of 1+C or 1-C) flips inside one region."""


class EpsilonMismatch(BicontactError):
    """A construction was invoked for the wrong orientation sign epsilon."""


class NotIntegrable(BicontactError):
    """The plane field whose leaf geometry was requested fails the
    integrability (Frobenius) check; ``defect`` is the measured defect."""

    def __init__(self, message: str, defect: float | None = None):
        self.defect = defect
        super().__init__(message)


class OdeStepFailure(BicontactError):
    """A Taylor step of the profile ODE fell below its floor or hit a NaN."""


class DegenerateH(BicontactError):
    """The 2x2 coefficient matrix h of the 4D normal form is singular."""


class StructureMismatch(BicontactError):
    """A structural identity that must hold exactly failed beyond tolerance."""


class ParseError(BicontactError):
    """Syntax error in an expression or input file; carries a position."""

    def __init__(self, message: str, pos: int | None = None, line: int | None = None):
        self.pos = pos
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif pos is not None:
            where = f" (position {pos})"
        super().__init__(message + where)


class UnknownIdentifier(BicontactError):
    """An expression referenced a name that the evaluation scope lacks."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown identifier {name!r}")


class ArityError(BicontactError):
    """A coframe definition has the wrong number of pieces for its chart:
    a missing or extra covector section, or a coefficient for a coordinate
    the chart does not have."""
