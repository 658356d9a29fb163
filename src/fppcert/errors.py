"""Exception types shared across the package."""


class FppError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FppError):
    """Malformed presentation text."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class CosetLimitExceeded(FppError):
    """Coset enumeration hit the coset cap without closing."""

    def __init__(self, limit, defined):
        self.limit = limit
        self.defined = defined
        super().__init__(
            f"coset enumeration exceeded the cap of {limit} cosets "
            f"({defined} cosets defined); the group may be infinite"
        )


class RelatorTooLong(CosetLimitExceeded):
    """A relator, written out, has more letters than the coset cap allows."""

    def __init__(self, limit, length):
        self.limit = limit
        self.defined = 1  # only coset 0 exists when the relator is refused
        FppError.__init__(
            self,
            f"a relator of length {length} is longer than the cap of {limit} "
            "cosets; scanning it could define one coset per letter"
        )


class InfiniteGroup(FppError):
    """The abelianization has free rank, so the group is infinite."""

    def __init__(self, free_rank):
        self.free_rank = free_rank
        super().__init__(
            f"the abelianization has free rank {free_rank}, so the group is "
            "infinite and has no finite coset table"
        )


class NoSolution(FppError):
    """An integer linear system has no solution over the integers."""


class OrderTooLarge(FppError):
    """Group order exceeds the cap of the bar-complex oracle."""


class ConsistencyError(FppError):
    """An internal cross-check failed; indicates a bug, never bad input."""


class CompositionNotZero(ConsistencyError):
    """The two maps handed to a homology computation do not compose to zero."""
