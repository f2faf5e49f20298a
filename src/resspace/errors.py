"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures onto exit codes and tests can assert on the exact failure kind.
"""


class ResspaceError(Exception):
    """Base class for all package errors."""

    code = "ERROR"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class PartialAssignmentError(ResspaceError):
    code = "PARTIAL_ASSIGNMENT"


class TooManyVariablesError(ResspaceError):
    code = "TOO_MANY_VARIABLES"


class TrivialClauseError(ResspaceError):
    code = "TRIVIAL_CLAUSE"


class InvalidParamError(ResspaceError):
    code = "INVALID_PARAM"


class CycleError(ResspaceError):
    code = "CYCLE"


class MultipleSinksError(ResspaceError):
    code = "MULTIPLE_SINKS"


class IndegreeExceededError(ResspaceError):
    code = "INDEGREE_EXCEEDED"


class IllegalMoveError(ResspaceError):
    code = "ILLEGAL_MOVE"

    def __init__(self, message="", rule=None, index=None):
        super().__init__(message)
        self.rule = rule
        self.index = index


class IncompletePebblingError(ResspaceError):
    code = "INCOMPLETE"


class StateSpaceExceededError(ResspaceError):
    code = "STATE_SPACE_EXCEEDED"


class InfeasibleError(ResspaceError):
    code = "INFEASIBLE"


class NotAnAxiomError(ResspaceError):
    code = "NOT_AN_AXIOM"


class BadPremisesError(ResspaceError):
    code = "BAD_PREMISES"


class RuleMismatchError(ResspaceError):
    code = "RULE_MISMATCH"


class WidthExceededError(ResspaceError):
    code = "WIDTH_EXCEEDED"


class NotImpliedError(ResspaceError):
    code = "NOT_IMPLIED"


class NotARefutationError(ResspaceError):
    code = "NOT_A_REFUTATION"


class InvalidInputError(ResspaceError):
    code = "INVALID_INPUT"


class CapExceededError(ResspaceError):
    code = "CAP_EXCEEDED"


class InvalidPebblingError(ResspaceError):
    code = "INVALID_PEBBLING"


class WhitePebblePresentError(ResspaceError):
    code = "WHITE_PEBBLE_PRESENT"


class AuthoritarianFunctionError(ResspaceError):
    code = "AUTHORITARIAN_FUNCTION"


class FormatError(ResspaceError):
    code = "FORMAT"
