"""profile: the residue classes of -1, 2 and eps at p."""


def run(args) -> tuple:
    from ..modmath import prime_profile

    prof = prime_profile(args.p)
    record = {
        "p": prof.p,
        "minus_one": prof.class_minus_one,
        "two": prof.class_two,
        "epsilon": prof.epsilon,
        "epsilon_class": prof.class_epsilon,
    }
    return [record], 0
