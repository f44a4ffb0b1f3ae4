"""Acceptance suite: the eleven headline checks, exact and time-boxed.

Every numeric comparison is exact rational equality. The counted suites use
seeded generators so a failure replays deterministically. The terminal
summary (see conftest) prints one line per criterion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from causalres import (
    BUILTIN,
    FLIP,
    IDENT,
    RESET0,
    RESET1,
    CombMixture,
    ExtremalComb,
    FunctionDistribution,
    MonotoneTriple,
    StochasticMap,
    ace_dist,
    all_functions,
    apply_mixture,
    bit_convertible_fast,
    bit_resource,
    caus_convertible,
    cumulative_monotones,
    downward_closure_vertices,
    guessing_probability,
    hasse,
    know_convertible,
    min_beta_over_preimage,
    monotone_triple,
    parametrize,
    posterior_causal_connection,
    table1_vertices,
    to_stochastic,
)
from oracles import witness_search
from strategies import (
    bits,
    random_bit_distribution,
    random_comb_mixture,
    random_distribution,
    simplex_weights,
    support_key,
)

F = Fraction

SIX_NAMED = ["bit1", "bit2", "bit3", "bit4", "bit5", "bit6"]


def test_criterion_01_monotone_tables_match_exactly():
    start = time.perf_counter()
    expected = {
        "bit1": MonotoneTriple(F(1), F(0), F(1)),
        "bit2": MonotoneTriple(F(0), None, F(0)),
        "bit3": MonotoneTriple(F(1), F(1, 3), F(1)),
        "bit4": MonotoneTriple(F(1, 3), F(1), F(1)),
        "bit5": MonotoneTriple(F(1, 3), F(1), F(1, 3)),
        "bit6": MonotoneTriple(F(1, 3), F(0), F(1)),
    }
    for name in SIX_NAMED:
        assert monotone_triple(BUILTIN[name]) == expected[name], name
    assert time.perf_counter() - start < 1.0


def test_criterion_02_hasse_diagram_of_the_six_resources():
    start = time.perf_counter()
    graph = hasse([(n, BUILTIN[n]) for n in SIX_NAMED])
    assert graph.classes == tuple((n,) for n in SIX_NAMED)
    labeled = {(graph.classes[a][0], graph.classes[b][0]) for a, b in graph.edges}
    assert labeled == {
        ("bit3", "bit1"),
        ("bit1", "bit6"),
        ("bit4", "bit5"),
        ("bit4", "bit6"),
        ("bit5", "bit2"),
        ("bit6", "bit2"),
    }
    assert time.perf_counter() - start < 5.0


def test_criterion_03_the_stuck_pair_is_incomparable():
    coin = BUILTIN["incomp_a"]
    stuck = BUILTIN["incomp_b"]
    assert not know_convertible(coin, stuck)
    assert not know_convertible(stuck, coin)


def test_criterion_04_guessing_game_values():
    assert guessing_probability(BUILTIN["bit4"]) == F(2, 3)
    assert guessing_probability(BUILTIN["bit5"]) == F(2, 3)
    assert posterior_causal_connection(BUILTIN["bit4"], 1) == 1


def test_criterion_05_worked_mixtures_land_exactly():
    sym = CombMixture(
        {ExtremalComb(IDENT, IDENT): F(1, 2), ExtremalComb(FLIP, FLIP): F(1, 2)}
    )
    assert apply_mixture(sym, BUILTIN["bit4"]) == BUILTIN["bit5"]
    damp = CombMixture(
        {ExtremalComb(IDENT, IDENT): F(3, 4), ExtremalComb(IDENT, RESET1): F(1, 4)}
    )
    assert apply_mixture(damp, BUILTIN["bit7"]) == BUILTIN["bit8"]


def test_criterion_06_closure_vertices_at_the_centered_parameters():
    P = bit_resource(F(1, 2), F(1, 2), F(1, 2))
    expected = sorted(table1_vertices(P), key=support_key)
    assert expected == sorted(
        [
            bits(F(1, 8), F(3, 8), F(1, 8), F(3, 8)),
            FunctionDistribution.point(RESET0),
            FunctionDistribution.point(RESET1),
            bits(F(3, 8), F(1, 8), F(1, 8), F(3, 8)),
            bits(F(3, 8), F(1, 8), F(3, 8), F(1, 8)),
            bits(F(1, 8), F(3, 8), F(3, 8), F(1, 8)),
        ],
        key=support_key,
    )
    vertices = sorted(downward_closure_vertices(P), key=support_key)
    assert len(vertices) == 6
    assert vertices == expected


def test_criterion_07_fast_rule_agrees_with_the_hull_lp():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(500):
        P = random_bit_distribution(rng, denominator=32)
        Q = random_bit_distribution(rng, denominator=32)
        assert bit_convertible_fast(P, Q) == bool(know_convertible(P, Q)), (P, Q)
    assert time.perf_counter() - start < 60.0


def test_criterion_08_monotones_never_increase_under_free_operations():
    rng = random.Random(88)

    def bit_family(read):
        for _ in range(1000):
            P = random_bit_distribution(rng, denominator=16)
            mixture = random_comb_mixture(rng, 2, 2, 2, 2)
            before, after = read(P), read(apply_mixture(mixture, P))
            if before is None or after is None:
                continue
            assert after <= before, (P, mixture)

    bit_family(lambda P: monotone_triple(P).m_beta)
    bit_family(lambda P: monotone_triple(P).m_abs_alpha)
    bit_family(lambda P: monotone_triple(P).m_gamma_beta)
    bit_family(lambda P: abs(ace_dist(P)))

    for _ in range(1000):
        P = random_distribution(rng, 3, 3, max_support=5)
        mixture = random_comb_mixture(rng, 3, 3, 3, 3)
        before = cumulative_monotones(P)
        after = cumulative_monotones(apply_mixture(mixture, P))
        assert all(a <= b for b, a in zip(before, after)), (P, mixture)


def test_criterion_09_exhaustive_search_matches_the_image_rule():
    start = time.perf_counter()
    pool = [
        f
        for domain in (1, 2, 3)
        for codomain in (1, 2, 3)
        for f in all_functions(domain, codomain)
    ]
    assert len(pool) == 56

    for f in pool:
        for g in pool:
            found = (
                witness_search(
                    f.outputs, f.codomain_size, g.outputs, g.codomain_size
                )
                is not None
            )
            assert caus_convertible(f, g) == found, (f, g)

    for f in pool:
        point_f = FunctionDistribution.point(f)
        for g in pool:
            verdict = know_convertible(point_f, FunctionDistribution.point(g))
            assert bool(verdict) == caus_convertible(f, g), (f, g)
    assert time.perf_counter() - start < 120.0


def probe(epsilon: Fraction) -> FunctionDistribution:
    alpha = None if epsilon == 0 else F(-1)
    gamma = None if epsilon == 1 else F(0)
    return bit_resource(alpha, F(epsilon), gamma)


def test_criterion_10_cost_construction_pins_the_connection_monotone():
    rng = random.Random(404)
    checked = 0
    while checked < 100:
        P = random_bit_distribution(rng, denominator=16)
        if parametrize(P).beta == 1:
            continue
        checked += 1
        level = monotone_triple(P).m_gamma_beta
        assert know_convertible(probe(level), P), P
        short = level - F(1, 64)
        if short > 0:
            assert not know_convertible(probe(short), P), P


def test_criterion_11_ace_identities_and_the_fiber_minimum():
    rng = random.Random(51)
    checked = 0
    while checked < 200:
        P = random_bit_distribution(rng, denominator=32)
        params = parametrize(P)
        if params.alpha is None:
            continue
        checked += 1
        assert abs(ace_dist(P)) == params.beta * abs(params.alpha), P

    for _ in range(200):
        columns = [simplex_weights(rng, 2, 24) for _ in range(2)]
        S = StochasticMap(
            2,
            2,
            (
                (columns[0][0], columns[1][0]),
                (columns[0][1], columns[1][1]),
            ),
        )
        bound, witness = min_beta_over_preimage(S)
        assert bound == abs(S.entries[1][1] - S.entries[1][0]), S
        assert to_stochastic(witness) == S, S
        assert parametrize(witness).beta == bound, S
