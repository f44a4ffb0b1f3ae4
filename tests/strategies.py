"""Shared generators and helpers: hypothesis strategies, seeded-random
samplers, and the bit-resource builder and support views the suites share.

The counted suites (fixed numbers of random trials) use `random.Random` with
explicit seeds so failures replay exactly; the algebraic invariants use
hypothesis so shrinking produces minimal counterexamples.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from causalres import (
    FLIP,
    IDENT,
    RESET0,
    RESET1,
    CombMixture,
    ExtremalComb,
    FiniteFunction,
    FunctionDistribution,
)


def bits(w_i, w_f, w_r0, w_r1) -> FunctionDistribution:
    """The bit resource with weights w_I, w_F, w_R0, w_R1 on the four bit maps."""
    support = {IDENT: w_i, FLIP: w_f, RESET0: w_r0, RESET1: w_r1}
    return FunctionDistribution(2, 2, {f: Fraction(w) for f, w in support.items()})


def as_dict(P: FunctionDistribution) -> dict:
    """P's support keyed by output table."""
    return {f.outputs: w for f, w in P.items()}


def support_key(P: FunctionDistribution) -> list:
    """P's (output table, weight) pairs in item order."""
    return [(f.outputs, w) for f, w in P.items()]


def functions(domain_size: int, codomain_size: int) -> st.SearchStrategy[FiniteFunction]:
    return st.tuples(
        *[st.integers(0, codomain_size - 1) for _ in range(domain_size)]
    ).map(lambda outs: FiniteFunction(domain_size, codomain_size, outs))


def sized_functions(max_size: int = 3) -> st.SearchStrategy[FiniteFunction]:
    sizes = st.integers(1, max_size)
    return st.tuples(sizes, sizes).flatmap(lambda dc: functions(*dc))


@st.composite
def function_chains(draw, length: int = 2, max_size: int = 3) -> tuple[FiniteFunction, ...]:
    """Composable functions, outermost first: result[i].domain == result[i+1].codomain."""
    sizes = [draw(st.integers(1, max_size)) for _ in range(length + 1)]
    return tuple(
        draw(functions(sizes[i + 1], sizes[i])) for i in range(length)
    )


@st.composite
def distributions(
    draw, domain_size: int, codomain_size: int, max_support: int = 4
) -> FunctionDistribution:
    pool = [
        FiniteFunction(domain_size, codomain_size, outs)
        for outs in product(range(codomain_size), repeat=domain_size)
    ]
    cap = min(max_support, len(pool))
    support = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=cap, unique=True)
    )
    weights = draw(
        st.lists(
            st.integers(1, 16), min_size=len(support), max_size=len(support)
        )
    )
    total = sum(weights)
    return FunctionDistribution(
        domain_size,
        codomain_size,
        {f: Fraction(w, total) for f, w in zip(support, weights)},
    )


def bit_distributions(max_support: int = 4) -> st.SearchStrategy[FunctionDistribution]:
    return distributions(2, 2, max_support=max_support)


def simplex_weights(rng: random.Random, parts: int, total: int) -> list[Fraction]:
    """Uniform over lattice points of the simplex: stars and bars."""
    bars = sorted(rng.sample(range(total + parts - 1), parts - 1))
    cuts = [-1] + bars + [total + parts - 1]
    return [Fraction(cuts[i + 1] - cuts[i] - 1, total) for i in range(parts)]


def random_function(rng: random.Random, domain_size: int, codomain_size: int) -> FiniteFunction:
    outs = tuple(rng.randrange(codomain_size) for _ in range(domain_size))
    return FiniteFunction(domain_size, codomain_size, outs)


def random_bit_distribution(rng: random.Random, denominator: int = 32) -> FunctionDistribution:
    weights = simplex_weights(rng, 4, denominator)
    tables = [(0, 1), (1, 0), (0, 0), (1, 1)]
    support = {
        FiniteFunction(2, 2, t): w for t, w in zip(tables, weights) if w > 0
    }
    return FunctionDistribution(2, 2, support)


def random_distribution(
    rng: random.Random,
    domain_size: int,
    codomain_size: int,
    max_support: int = 4,
    denominator: int = 24,
) -> FunctionDistribution:
    pool = [
        FiniteFunction(domain_size, codomain_size, outs)
        for outs in product(range(codomain_size), repeat=domain_size)
    ]
    k = rng.randint(1, min(max_support, len(pool)))
    support = rng.sample(pool, k)
    weights = simplex_weights(rng, k, denominator)
    pairs = {f: w for f, w in zip(support, weights) if w > 0}
    return FunctionDistribution(domain_size, codomain_size, pairs)


def random_comb_mixture(
    rng: random.Random,
    src_domain: int,
    src_codomain: int,
    tgt_domain: int,
    tgt_codomain: int,
    max_support: int = 3,
    denominator: int = 12,
) -> CombMixture:
    k = rng.randint(1, max_support)
    weights = simplex_weights(rng, k, denominator)
    support: dict[ExtremalComb, Fraction] = {}
    for w in weights:
        if w == 0:
            continue
        comb = ExtremalComb(
            pre=random_function(rng, tgt_domain, src_domain),
            post=random_function(rng, src_codomain, tgt_codomain),
        )
        support[comb] = support.get(comb, Fraction(0)) + w
    return CombMixture(support)
