"""ratio: the factorwise quotient of two truncated Euler products."""


def run(args) -> tuple:
    from itertools import chain

    from ..lseries import ratio_partial
    from ..point_count import Curve
    from . import BRUTE_LIMIT_CEILING, _fail_brute_sweep

    if (args.b1 or args.b2) and args.limit > BRUTE_LIMIT_CEILING:
        return _fail_brute_sweep(args.limit)
    ev = ratio_partial(Curve(args.a1, args.b1), Curve(args.a2, args.b2), args.s, args.limit)
    rows = ({"p": p, "factor": factor} for p, factor in zip(ev.primes, ev.factors))
    return chain(rows, [{"s": ev.s, "prime_bound": ev.prime_bound, "ratio": ev.ratio}]), 0
