"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """Malformed edge-list input. Carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph.

    ``pair`` names two mutually unreachable vertices.
    """

    def __init__(self, u, v):
        super().__init__(f"graph is disconnected: no path between vertices {u} and {v}")
        self.pair = (u, v)


class PreconditionError(ValueError):
    """A documented precondition of an operation does not hold."""


class IntegralityError(ArithmeticError):
    """An exact division that a theorem guarantees to be integral was not.

    Signals an implementation bug or a violated precondition, never a
    rounding issue: all arithmetic is exact.
    """


def exact_div(num, den):
    """Integer division that must be exact; anything else is a bug upstream."""
    q, r = divmod(num, den)
    if r != 0:
        raise IntegralityError(f"{num} is not divisible by {den}")
    return q


class DeferredPreconditionError(PreconditionError):
    """A PreconditionError whose text the callable ``args[0]`` builds when it
    is read, so that a refusal caught unread costs nothing to explain."""

    def __str__(self):
        return self.args[0]()


def not_modular_error(classification):
    """The refusal for a graph that is not modular, naming the witness triple
    of ``classification``, which is searched only when the text is read."""

    def text():
        witness = classification.witness
        detail = f" (witness triple {','.join(map(str, witness))})" if witness else ""
        return f"graph is not modular{detail}"

    return DeferredPreconditionError(text)
