"""lseries: the truncated Euler product at s, as a float or exactly."""

import math


def run(args) -> tuple:
    from ..lseries import partial_L, partial_L_exact
    from ..point_count import Curve
    from . import BRUTE_LIMIT_CEILING, EXACT_DIGITS_CEILING, EXACT_S_CEILING, _fail, _fail_brute_sweep, _fraction_str

    if args.b and args.limit > BRUTE_LIMIT_CEILING:
        return _fail_brute_sweep(args.limit)
    curve = Curve(args.a, args.b)
    if not args.exact:
        ev = partial_L(curve, args.s, args.limit)
    else:
        if args.s != int(args.s):
            return _fail(f"--exact needs an integer s, got {args.s}")
        digits = (2 * args.s - 1) * args.limit / math.log(10)
        if digits > EXACT_DIGITS_CEILING:
            return _fail(f"--exact --s {args.s} --limit {args.limit} needs about {digits:.3g} digits, "
                         f"above the ceiling of {EXACT_DIGITS_CEILING}")
        if args.s >= EXACT_S_CEILING:
            return _fail(f"--exact needs s below 2^53, got {args.s}")
        ev = partial_L_exact(curve, int(args.s), args.limit)
        ev = ev._replace(value=_fraction_str(ev.value))
    return [{"a": args.a, "b": args.b, **ev._asdict()}], 0
