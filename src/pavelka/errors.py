"""Exception types shared across the package."""


class PavelkaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PavelkaError):
    """Malformed formula, term, or vocabulary text.

    ``position`` is the 0-based character offset at which parsing failed.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class VocabularyError(PavelkaError):
    """Symbol sets do not line up: unknown/duplicate symbols, arity clashes."""


class FormulaError(PavelkaError):
    """A formula or connective term violates a structural precondition."""


class StructureError(PavelkaError):
    """A structure's tables are malformed (incomplete, wrong domains)."""


class EvaluationError(PavelkaError):
    """Evaluation cannot proceed (an unassigned variable or a missing
    symbol), or its value has too many digits to print."""


class RestrictionError(PavelkaError):
    """Restricting a structure to a predicate's positive part is undefined.

    ``reason`` is one of ``"non-discrete"``, ``"empty"``, ``"not-closed"``.
    """

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


class ResolutionError(PavelkaError):
    """A search grid cannot represent a rational constant from the input."""
