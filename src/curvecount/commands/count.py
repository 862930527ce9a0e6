"""count: n_p and a_p at one good prime."""


def run(args) -> tuple:
    from ..point_count import BRUTE, Curve, trace_ap
    from . import BRUTE_P_CEILING, _fail

    if (args.b or args.method == BRUTE) and args.p > BRUTE_P_CEILING:
        return _fail(f"a brute-force count needs p <= {BRUTE_P_CEILING}, got {args.p}")
    record = trace_ap(Curve(args.a, args.b), args.p, method=args.method)
    shown = record.n_p + 1 if args.plus_one else record.n_p
    return [{"p": record.p, "n_p": shown, "a_p": record.a_p}], 0
