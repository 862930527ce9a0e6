"""find-points: rational points on y^2 = x^3 - d^2 x."""


def run(args) -> tuple:
    from ..rational_points import find_points_for_d
    from . import _fraction_str

    points = find_points_for_d(args.d, args.bound)
    return [{"d": args.d, "x": _fraction_str(p.x), "y": _fraction_str(p.y)} for p in points], 0
