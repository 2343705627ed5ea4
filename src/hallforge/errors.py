"""Exception hierarchy shared across the engine."""


class HallforgeError(Exception):
    """Base class for all engine errors."""


class QuiverSpecError(HallforgeError):
    """Malformed quiver spec document."""


class InvolutionError(QuiverSpecError):
    """sigma_nodes/sigma_arrows do not define a quiver involution."""


class DualitySignError(QuiverSpecError):
    """tau_a * tau_{sigma(a)} != s_i * s_j for some arrow i -> j."""


class OddSymplecticError(HallforgeError):
    """Odd component at a symplectic fixed node of a self-dual dimension vector."""


class GradingError(HallforgeError):
    """Dimension vector incompatible with the requested grading monoid."""


class SymmetryError(HallforgeError):
    """Operation requires a (sigma-)symmetric quiver or the supercommutativity criterion."""


class KindMismatchError(HallforgeError):
    """Mixed torus/module series, or series over different quivers."""


class InexactCoefficientError(HallforgeError, TypeError):
    """A float coefficient: coefficients are exact (int, Fraction or a rational string)."""


class InexactDivisionError(HallforgeError):
    """A division that must be exact left a remainder (correctness assertion)."""


class ExponentOverflowError(HallforgeError, OverflowError):
    """A polynomial exponent would leave the packed-monomial range."""


class NonIntegralError(HallforgeError):
    """Pochhammer-factorization inversion produced a non-integer exponent."""
