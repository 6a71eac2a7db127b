"""Exception hierarchy shared by all modules.

Every error carries an ``exit_code`` used by the CLI: 2 for parse errors,
3 for precondition violations, 4 for mathematical failures (division by
zero, singular matrices, non-invertible elements), 5 for verification-suite
failures.
"""


class GradedetError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class ParseError(GradedetError):
    """A description file or inline document failed to parse."""

    exit_code = 2


class MathematicalError(GradedetError):
    """An exact computation failed for a mathematical reason."""

    exit_code = 4


class VerificationFailure(GradedetError):
    """A verification sweep reported failures."""

    exit_code = 5


# scalars

class DivisionByZero(MathematicalError):
    pass


class IncompatibleRootOrders(GradedetError):
    pass


# grading

class InvalidCommutationFactor(GradedetError):
    pass


class IncompatibleGroups(GradedetError):
    pass


class NoSolutionAtThisRootOrder(MathematicalError):
    pass


class InvalidParams(GradedetError):
    pass


# algebra

class NotAssociative(GradedetError):
    pass


class DegreeViolation(GradedetError):
    pass


class NotLambdaCommutative(GradedetError):
    pass


class NoUnit(GradedetError):
    pass


class NotInvertible(MathematicalError):
    pass


class MixedAlgebras(GradedetError):
    pass


# gmatrix

class DegreeMismatch(GradedetError):
    pass


class InhomogeneousScalar(GradedetError):
    pass


class NotSquare(GradedetError):
    pass


class Singular(MathematicalError):
    pass


class MissingUnit(GradedetError):
    pass


# gdet

class NotDegreeZero(GradedetError):
    pass


class InvalidOrdering(GradedetError):
    pass


class OddEntries(GradedetError):
    pass


class NotCrossedProduct(GradedetError):
    pass


class TooLarge(GradedetError):
    """An input past a documented size limit, refused before any work
    because its cost would explode."""


# berezinian

class NotParitySorted(GradedetError):
    pass


class OddDegree(GradedetError):
    pass


class SingularOddBlock(Singular):
    pass
