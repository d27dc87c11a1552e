"""Exception hierarchy shared by every layer of the package."""


class AtomisoError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParseError(AtomisoError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class BindingError(AtomisoError):
    """Unbound variable, duplicate binder, or an open expression where a
    closed one is required."""


class VocabularyError(AtomisoError):
    """Relation symbol or atom literal not supported by the chosen backend."""


class ValuationError(AtomisoError):
    """A valuation does not cover the free variables of a formula."""


class DomainError(AtomisoError):
    """An element lies outside the domain of a map (atom permutation or
    definable function)."""


class SupportError(AtomisoError):
    """A parameter set does not contain the parameters of the expression it
    is supposed to support."""


class DensenessError(AtomisoError):
    """The backend does not admit the self-embedding that parameter
    elimination needs to place a representative independently of the
    parameters (the cyclic-order backend is the shipped example)."""


class ValidationError(AtomisoError):
    """A structure, function, or map file fails its well-formedness checks."""


class ResourceError(AtomisoError):
    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class EliminationError(AtomisoError):
    """Internal inconsistency detected while rebuilding an isomorphism
    without its extra parameters; indicates a bug, not bad input."""
