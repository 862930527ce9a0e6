"""lemma-verify: sweep one closed-form claim against brute force."""


def run(args) -> tuple:
    from ..residue_lemmas import verify_lemma
    from . import BRUTE_LIMIT_CEILING, _fail_brute_sweep

    if args.lemma != 5 and args.limit > BRUTE_LIMIT_CEILING:  # only lemma 5's check is not O(p)
        return _fail_brute_sweep(args.limit)
    checked, mismatches = verify_lemma(args.lemma, args.limit, args.d_max, args.samples, args.seed, args.workers)
    summary = {"lemma": args.lemma, "limit": args.limit, "checked": checked, "mismatches": len(mismatches)}
    return mismatches + [summary], 1 if mismatches else 0
