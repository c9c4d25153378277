"""Exception types shared across the package.

Every error raised on bad user input derives from InputError; InternalError
marks a broken internal invariant (two pipelines disagreeing, a rational sum
failing to be an integer) and is never the caller's fault.
"""


class MixEulerError(Exception):
    pass


class InputError(MixEulerError):
    pass


class InternalError(MixEulerError):
    pass


class EmptyInput(InputError):
    pass


class RankOutOfRange(InputError):
    pass


class NonPrimeQ(InputError):
    pass


class LoopDetected(InputError):
    pass


class BasisExchangeViolation(InputError):
    pass


class OverlapViolation(InputError):
    pass


class SizeViolation(InputError):
    pass


class NotAFlat(InputError):
    pass


class RankCollapse(InputError):
    pass


class VOutOfRange(InputError):
    pass


class CompositionMismatch(InputError):
    pass


class PreconditionViolation(InputError):
    pass


class RankTooSmall(PreconditionViolation):
    pass


class ExponentMismatch(InputError):
    pass


class NotPMD(InputError):
    pass


class NotLopsided(InputError):
    pass


class DivisionNotExact(InternalError):
    pass


class ParseError(InputError):
    pass


class MatroidFileError(InputError):
    """Schema violation in a matroid JSON file; `pointer` is a JSON pointer."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer else message)
        self.pointer = pointer
