import random
from fractions import Fraction

from hypothesis import settings

from symclone import RatMatrix, SkewForm

# CI runs tier-1 with --hypothesis-profile=ci: the exact-kernel property
# tests then draw kernel_examples(n) examples, four times their local count.
settings.register_profile("ci", max_examples=400)


def kernel_examples(n: int) -> int:
    """n examples under the default profile, scaled by the loaded profile's
    max_examples (100 by default)."""
    return n * settings.default.max_examples // 100


def random_skew_form(dim: int, rng: random.Random, max_num: int = 5, max_den: int = 3) -> SkewForm:
    """Random nondegenerate rational skew form of the given even dimension."""
    while True:
        a = RatMatrix(
            [
                [Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den)) for _ in range(dim)]
                for _ in range(dim)
            ]
        )
        s = a - a.T
        if s.rank() == dim:
            return SkewForm(s)
