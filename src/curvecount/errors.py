"""Exception types shared across the package."""


class HypothesisError(ValueError):
    """A closed form was invoked outside the residue class it covers."""


class SingularCurveError(ValueError):
    """The discriminant vanishes; y^2 = x^3 + ax + b is not elliptic."""


class BadReductionError(ValueError):
    """The prime divides the curve discriminant."""


class TangentUndefinedError(ZeroDivisionError):
    """Doubling attempted at a two-torsion point (y = 0)."""


class CacheInvalidError(Exception):
    """An a_p cache file failed validation; callers recompute instead."""
