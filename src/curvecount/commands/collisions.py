"""collisions: pairs sharing V = em(m+e)^2."""


def run(args) -> tuple:
    from ..collisions import collision_search

    groups = collision_search(args.bound, workers=args.workers, coprime_only=not args.allow_non_coprime)
    return [g._asdict() for g in groups], 0
