"""Exception hierarchy shared across the package."""


class GraphQAError(Exception):
    """Base class for all package errors."""


class ValidationError(GraphQAError):
    """Invalid input to a store or generator operation."""


class DatasetFormatError(GraphQAError):
    """Dataset file could not be parsed.

    ``line`` is 1-based; 0 means the position is unknown.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class EngineError(GraphQAError):
    """Query engine failure. ``kind`` is one of lex/parse/semantic/runtime/budget."""

    kind = "runtime"

    def __init__(self, message: str, offset: int | None = None):
        suffix = f" (at offset {offset})" if offset is not None else ""
        super().__init__(message + suffix)
        self.offset = offset


class LexError(EngineError):
    kind = "lex"


class ParseError(EngineError):
    kind = "parse"


class SemanticError(EngineError):
    kind = "semantic"


class RuntimeQueryError(EngineError):
    kind = "runtime"


class BudgetError(EngineError):
    """Matching examined more candidates, or ran longer, than one query may."""

    kind = "budget"


class TemplateError(GraphQAError):
    """Prompt template missing or with unbound placeholders."""


class GatewayError(GraphQAError):
    """LLM endpoint unreachable or returned an unusable response."""


class ReplayMissError(GatewayError):
    """Replay backend has no recorded response for a request."""


class CorpusError(GraphQAError):
    """Benchmark corpus file invalid or inconsistent with the graph."""
