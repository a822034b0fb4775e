"""Exception hierarchy shared by all latmed modules.

Every domain error derives from LatmedError so the CLI can map any of
them to exit code 1 and report the error by its class name.
"""


class LatmedError(Exception):
    pass


# --- poset / lattice construction ---

class CycleDetected(LatmedError):
    pass


class UnknownLabel(LatmedError):
    pass


class NotALattice(LatmedError):
    pass


# --- count vectors and bounds ---

class OutOfBounds(LatmedError):
    pass


class ShapeMismatch(LatmedError):
    pass


class TooLarge(LatmedError):
    pass


# --- median machinery ---

class EmptyInput(LatmedError):
    pass


class NotRegular(LatmedError):
    pass


class JOutOfRange(LatmedError):
    pass


# --- stable matching ---

class MalformedFile(LatmedError):
    pass


class NotAPermutation(LatmedError):
    pass


class SizeMismatch(LatmedError):
    pass


class RankOutOfRange(LatmedError):
    pass


class NotStableInput(LatmedError):
    pass


class IndexOutOfRange(LatmedError):
    pass


# --- market clearing ---

class NotClearingInput(LatmedError):
    pass
