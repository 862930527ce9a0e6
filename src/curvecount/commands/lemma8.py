"""lemma8: the split of odd primes by p mod 4."""


def run(args) -> tuple:
    from ..residue_lemmas import lemma8_fraction
    from . import _fraction_str

    ones, threes, fraction = lemma8_fraction(args.limit)
    return [{"limit": args.limit, "ones": ones, "threes": threes, "fraction": _fraction_str(fraction)}], 0
