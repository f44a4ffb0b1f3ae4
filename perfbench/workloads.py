"""Seeded question lists for the three workloads.

A question is one `causalres.cli.main` call: its argv, the text it reads on
standard input, and the check its stdout must pass. Resources reach the CLI
as generated text on stdin or as built-in names, nothing else.

Where the program's cost swings with details of the input that the seed would
otherwise pick (the pivot path of the exact LP changes with how the alphabets
are labelled; the position of the first matching operation pair changes how
much of an enumeration runs), the lists are stratified: every seed asks the
same number of questions of each shape, and the seed picks the labelling,
the targets and the order. That keeps a list's total cost close to the same
on every seed, so two sets of runs on different seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from typing import Callable

from checks import (
    FLIP,
    IDENT,
    RESET0,
    RESET1,
    F,
    Resource,
    Table,
    bit_reaches,
    check_bit_ace,
    check_bit_closure,
    check_bit_game,
    check_bit_hasse,
    check_bit_monotones,
    check_closure,
    check_convert,
    image_size,
    mix,
    push,
    relabel,
    resource_text,
    tail,
)

QUESTION_TIMEOUT_S = 60.0
# `closure trit_mix` solves 261 exact LPs of about 1.2 s each; it stays in the
# list as a known failure, cut off after this long.
TRIT_MIX_TIMEOUT_S = 1.0

BIT_BUILTINS = (
    "bit1", "bit2", "bit3", "bit4", "bit5", "bit6", "bit7", "bit8",
    "incomp_a", "incomp_b",
    "mono_beta_a", "mono_beta_b", "mono_alpha_a", "mono_alpha_b",
    "mono_gamma_a", "mono_gamma_b",
)  # fmt: skip
BIT_CONVERT_PAIRS = 240
BIT_MAX_DENOMINATOR = 32

HALF = F(1, 2)
S3 = list(permutations(range(3)))

# 2->3 and 3->2 resources whose closures hull3 asks for, each under two seeded
# relabellings. Two- and three-function supports give 14 to 33 vertices.
CLOSURE_BASES: tuple[Resource, ...] = (
    (2, 3, {(0, 1): HALF, (2, 2): HALF}),
    (3, 2, {(0, 0, 1): HALF, (1, 1, 1): HALF}),
    (2, 3, {(0, 1): F(1, 3), (1, 2): F(1, 3), (2, 2): F(1, 3)}),
    (3, 2, {(0, 0, 1): F(1, 3), (0, 1, 1): F(1, 3), (1, 1, 1): F(1, 3)}),
)

# enum4 sources, one per signature: each supports one function of image size
# 3 (a bijection on 4->4) next to smaller ones.
ENUM_SOURCES: dict[str, Resource] = {
    "4->4": (4, 4, {(0, 1, 2, 3): HALF, (0, 1, 1, 2): F(1, 4), (3, 3, 3, 3): F(1, 4)}),
    "4->3": (4, 3, {(0, 1, 2, 2): HALF, (0, 1, 1, 0): F(1, 4), (2, 2, 2, 2): F(1, 4)}),
    "3->4": (3, 4, {(0, 1, 2): HALF, (0, 1, 1): F(1, 4), (3, 3, 3): F(1, 4)}),
}
# kind -> (source, target signature, pre, post) of the pair that makes the
# target. Every pre sits in the first tenth of the program's lexicographic
# enumeration, so the forward certificate is found early whatever the seed;
# the reverse question walks its whole enumeration (4,096 to 20,736 combs)
# and is refused.
ENUM_SHAPES = {
    "4->4 to 4->3": ("4->4", (4, 3), (0, 1, 2, 2), (0, 1, 2, 2)),
    "4->4 to 3->4": ("4->4", (3, 4), (0, 1, 3), (0, 1, 2, 3)),
    "4->3 to 3->4": ("4->3", (3, 4), (0, 0, 1), (0, 1, 3)),
    "3->4 to 4->3": ("3->4", (4, 3), (0, 0, 0, 1), (0, 1, 2, 2)),
}
# One round: the two 4->4 questions take about 1.3 s each, the three
# questions below 0.2 s and the four "4->3 to 3->4" questions 0.3 s, so a
# round lasts about 4 s and a run repeats it several times. Those four hold
# ranks 4 to 7 of the 9 question times, so the median question time lies
# well inside one group of like questions, not on the step between two.
ENUM_LIST = (
    "4->4 to 4->3", "4->4 to 3->4",
    "3->4 to 4->3",
    "4->3 to 3->4", "4->3 to 3->4", "4->3 to 3->4", "4->3 to 3->4",
    "point 3 to 2", "point 2 to 2",
)  # fmt: skip


@dataclass(frozen=True)
class Question:
    kind: str
    argv: tuple[str, ...]
    stdin: str
    check: Callable[[str], None]
    timeout_s: float = QUESTION_TIMEOUT_S
    expect_timeout: bool = False


def builtin_dists() -> dict[str, dict]:
    """Built-in resources as plain tables; they are inputs, read from the library."""
    from causalres.library import BUILTIN

    return {
        name: {f.outputs: w for f, w in dist.items()}
        for name, dist in BUILTIN.items()
    }


def convert_question(a: Resource, b: Resource, expect: tuple[bool, bool]) -> Question:
    return Question(
        "convert",
        ("convert", "-"),
        resource_text("a", a) + resource_text("b", b),
        partial(check_convert, a=a, b=b, expect=expect),
    )


def random_bit(rng: random.Random) -> Resource:
    d = rng.randint(1, BIT_MAX_DENOMINATOR)
    cuts = sorted(rng.randint(0, d) for _ in range(3))
    nums = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2])
    return (2, 2, {t: F(n, d) for t, n in zip((IDENT, FLIP, RESET0, RESET1), nums) if n})


def bits(seed: int) -> list[Question]:
    """Many small questions on the paper's binary case."""
    rng = random.Random(f"bits:{seed}")
    named = builtin_dists()
    out = []
    for _ in range(BIT_CONVERT_PAIRS):
        a, b = random_bit(rng), random_bit(rng)
        out.append(convert_question(a, b, (bit_reaches(a[2], b[2]), bit_reaches(b[2], a[2]))))
    for name in BIT_BUILTINS:
        out.append(
            Question("closure", ("closure", name), "", partial(check_bit_closure, name=name, dist=named[name]))
        )
    hasse_named = {name: named[name] for name in BIT_BUILTINS}
    out.append(
        Question(
            "hasse",
            ("hasse", "--format", "report", *BIT_BUILTINS),
            "",
            partial(check_bit_hasse, named=hasse_named),
        )
    )
    for kind, check in (
        ("monotones", check_bit_monotones),
        ("game", check_bit_game),
        ("ace", check_bit_ace),
    ):
        for name in BIT_BUILTINS:
            out.append(Question(kind, (kind, name), "", partial(check, name=name, dist=named[name])))
    return out


def hull3(seed: int) -> list[Question]:
    """LP-bound questions: 3->3 converts and closures of 2->3 and 3->2 resources."""
    rng = random.Random(f"hull3:{seed}")
    converts = []
    # All 18 sources {bijection: 1/2, constant: 1/2} form one orbit under
    # relabelling; asking each once removes the labelling from the total cost.
    # Each target mixes a seeded relabelling of the source with a seeded free
    # image (constants only) and has three functions. Letting the free part
    # be any image spread the median question time over three seeds from
    # 0.33 s to 0.41 s; with a free image it stayed within 0.30-0.31 s.
    for pi in S3:
        for c in range(3):
            a: Resource = (3, 3, {pi: HALF, (c, c, c): HALF})
            while True:
                pre1, post1 = rng.choice(S3), rng.choice(S3)
                pre2 = tuple(rng.randrange(3) for _ in range(3))
                post2 = tuple(rng.randrange(3) for _ in range(3))
                free = push(a[2], pre2, post2)
                target = mix([(HALF, push(a[2], pre1, post1)), (HALF, free)])
                if all(image_size(t) == 1 for t in free) and len(target) == 3:
                    break
            b: Resource = (3, 3, target)
            # a->b holds by construction. b->a fails: b carries less weight on
            # bijections than a, and no free operation raises that weight. b
            # supports a bijection, so every function is reachable and the
            # LP, not the reachability shortcut, has to decide.
            assert tail(b[2], 3) < tail(a[2], 3)
            assert any(image_size(t) == 3 for t in target)
            converts.append(convert_question(a, b, (True, False)))
    rng.shuffle(converts)

    closures = []
    for dom, cod, dist in CLOSURE_BASES:
        named = [
            (label, (dom, cod, relabel(dist, rng.choice(list(permutations(range(dom)))),
                                         rng.choice(list(permutations(range(cod)))))))
            for label in ("p", "q")
        ]  # fmt: skip
        closures.append(
            Question(
                "closure",
                ("closure", "-"),
                "".join(resource_text(label, res) for label, res in named),
                partial(check_closure, named=named),
            )
        )
    trit = (3, 3, builtin_dists()["trit_mix"])
    closures.append(
        Question(
            "closure",
            ("closure", "trit_mix"),
            "",
            partial(check_closure, named=[("trit_mix", trit)]),
            timeout_s=TRIT_MIX_TIMEOUT_S,
            expect_timeout=True,
        )
    )
    return converts + closures


def perms(n: int) -> list[Table]:
    return list(permutations(range(n)))


def enum4(seed: int) -> list[Question]:
    """Convert questions between 4- and 3-letter alphabets that never reach the LP."""
    rng = random.Random(f"enum4:{seed}")
    out = []
    for kind in ENUM_LIST:
        if kind.startswith("point"):
            # Deterministic theory: delta_f reaches delta_g iff |im g| <= |im f|.
            # f is 4->3 and g is 3->4, with the image sizes the kind names.
            size_f, size_g = int(kind.split()[1]), int(kind.split()[3])
            f_table = tuple(min(x, size_f - 1) for x in (0, 1, 2, 2))
            g_table = tuple(min(x, size_g - 1) for x in (0, 1, 2))
            f = relabel({f_table: F(1)}, rng.choice(perms(4)), rng.choice(perms(3)))
            g = relabel({g_table: F(1)}, rng.choice(perms(3)), rng.choice(perms(4)))
            a: Resource = (4, 3, f)
            b: Resource = (3, 4, g)
            assert {image_size(t) for t in f} == {size_f} and {image_size(t) for t in g} == {size_g}
            expect = (size_g <= size_f, size_f <= size_g)
        else:
            src, (dom, cod), pre, post = ENUM_SHAPES[kind]
            s_dom, s_cod, s_dist = ENUM_SOURCES[src]
            a = (s_dom, s_cod, relabel(s_dist, tuple(range(s_dom)), rng.choice(perms(s_cod))))
            base = push(s_dist, pre, post)
            b = (dom, cod, relabel(base, tuple(range(dom)), rng.choice(perms(cod))))
            # a->b holds: b is an image of a. b->a fails: a supports a
            # function of larger image size than any b supports, and image
            # size never grows under composition.
            assert max(map(image_size, b[2])) < max(map(image_size, a[2]))
            expect = (True, False)
        out.append(convert_question(a, b, expect))
    rng.shuffle(out)
    return out


WORKLOADS: dict[str, Callable[[int], list[Question]]] = {
    "bits": bits,
    "hull3": hull3,
    "enum4": enum4,
}
