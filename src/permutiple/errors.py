"""Exception types shared across the package."""


class PermutipleError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PermutipleError, ValueError):
    """A parameter is outside its domain (bad base, multiplier, size, ...)."""


class WalkError(PermutipleError):
    """An input string does not trace a zero-to-zero walk on the state graph.

    ``index`` is the position of the first inconsistent transition; a value
    of ``len(string)`` means the walk ran to completion but ended in a
    nonzero state.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class MultisetMismatchError(PermutipleError):
    """An accepted input string whose left/right digit multisets differ."""


class InfeasibleUnionError(PermutipleError):
    """A cycle multiset whose multigraph union admits no Eulerian circuit."""


class NoReflectionError(PermutipleError):
    """The reflection of this class graph is not a permutiple class graph."""


class InvariantError(PermutipleError, RuntimeError):
    """An internal consistency check failed: a defect in this package."""


class ScanLimitError(PermutipleError):
    """A brute-force scan would exceed its candidate limit or memory budget."""


class SeedError(PermutipleError, ValueError):
    """A seed or equation string could not be parsed."""


class BFileError(PermutipleError, ValueError):
    """A b-file is malformed; ``line`` is the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
