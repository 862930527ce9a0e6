"""lemma11: the exhaustive no-solution check for prime d = 3 (mod 8)."""


def run(args) -> tuple:
    from ..rational_points import lemma11_applicable, lemma11_exhaustive

    applicable = lemma11_applicable(args.d)
    hits = lemma11_exhaustive(args.d, args.bound)
    rows = [q._asdict() for q in hits]
    rows.append(
        {
            "d": args.d,
            "bound": args.bound,
            "applicable": applicable,
            "hits": len(hits),
            "violation": applicable and bool(hits),
        }
    )
    return rows, 1 if applicable and hits else 0
