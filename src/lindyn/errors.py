"""Exception types shared across the package."""


class LindynError(Exception):
    """Base class for all package-specific errors."""


class NonInvertibleError(LindynError):
    """A piecewise-affine map fails strict monotonicity or surjectivity."""


class GridMismatchError(LindynError):
    """Two grid functions do not share the same grid."""


class DivergentSegalNormError(LindynError):
    """The weighted sup-norm series diverges: sup|tau| >= 1 on the support."""


class ZeroVectorError(LindynError):
    """Projective distance from the zero function is undefined."""


class NoValidNError(LindynError):
    """No cut index satisfies the smallness condition inside the grid."""


class PreconditionViolatedError(LindynError):
    """A construction precondition failed; the message names the inequality."""


class SupportOutsideWindowError(LindynError):
    """A measure's support has points outside the compact window."""


class ConfigError(LindynError):
    """Invalid experiment configuration."""
