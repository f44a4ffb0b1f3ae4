"""Exact-arithmetic foundations: functions, distributions, stochastic maps."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from causalres import (
    BUILTIN,
    FLIP,
    IDENT,
    RESET0,
    RESET1,
    FiniteFunction,
    FunctionDistribution,
    SizeMismatch,
    StochasticMap,
    all_functions,
    canonical_preimage,
    compose_distributions,
    compose_functions,
    image_size,
    to_stochastic,
)
from strategies import distributions, function_chains, functions, sized_functions

F = Fraction

TRIT_F1 = FiniteFunction(3, 3, (0, 0, 1))
TRIT_F2 = FiniteFunction(3, 3, (0, 0, 2))
TRIT_F3 = FiniteFunction(3, 3, (0, 2, 2))

RANDOMIZING = StochasticMap(2, 2, ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))


def bits(w_i, w_f, w_r0, w_r1) -> FunctionDistribution:
    support = {IDENT: F(w_i), FLIP: F(w_f), RESET0: F(w_r0), RESET1: F(w_r1)}
    return FunctionDistribution(2, 2, support)


# construction and validation


def test_function_rejects_out_of_range_outputs():
    with pytest.raises(ValueError):
        FiniteFunction(2, 2, (0, 2))


def test_function_outputs_length_must_match_domain():
    with pytest.raises(ValueError):
        FiniteFunction(3, 2, (0, 1))


def test_bit_alphabet_tables():
    assert IDENT.outputs == (0, 1)
    assert FLIP.outputs == (1, 0)
    assert RESET0.outputs == (0, 0)
    assert RESET1.outputs == (1, 1)


def test_distribution_drops_zero_weight_entries():
    P = FunctionDistribution(2, 2, {IDENT: F(1), FLIP: F(0)})
    assert P.support == {IDENT: F(1)}
    assert P == FunctionDistribution.point(IDENT)


def test_distribution_requires_unit_total():
    with pytest.raises(ValueError):
        FunctionDistribution(2, 2, {IDENT: F(1, 2), FLIP: F(1, 3)})


def test_distribution_rejects_negative_weights():
    with pytest.raises(ValueError):
        FunctionDistribution(2, 2, {IDENT: F(3, 2), FLIP: F(-1, 2)})


def test_distribution_rejects_floats():
    with pytest.raises(TypeError):
        FunctionDistribution(2, 2, {IDENT: 0.5, FLIP: 0.5})


def test_distribution_rejects_mixed_signatures():
    with pytest.raises(ValueError):
        FunctionDistribution(2, 2, {IDENT: F(1, 2), TRIT_F1: F(1, 2)})


def test_stochastic_map_columns_must_sum_to_one():
    with pytest.raises(ValueError):
        StochasticMap(2, 2, ((F(1, 2), F(1, 2)), (F(1, 3), F(1, 2))))


def test_all_functions_counts():
    assert len(list(all_functions(2, 2))) == 4
    assert len(list(all_functions(3, 3))) == 27


# compose_functions


def test_flip_is_an_involution():
    assert compose_functions(FLIP, FLIP) == IDENT


def test_constant_outer_absorbs():
    assert compose_functions(RESET0, IDENT) == RESET0


def test_trit_composition_collapses():
    assert compose_functions(TRIT_F3, TRIT_F2) == TRIT_F2


def test_compose_functions_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose_functions(IDENT, TRIT_F1)


@given(function_chains(length=3))
def test_compose_functions_associative(chain):
    f, g, h = chain
    assert compose_functions(compose_functions(f, g), h) == compose_functions(
        f, compose_functions(g, h)
    )


@given(sized_functions(max_size=4))
def test_identities_are_neutral(f):
    left = FiniteFunction.identity(f.codomain_size)
    right = FiniteFunction.identity(f.domain_size)
    assert compose_functions(left, f) == f
    assert compose_functions(f, right) == f


@given(functions(3, 3), functions(3, 3))
def test_image_size_shrinks_under_composition(f, g):
    composed = compose_functions(g, f)
    assert image_size(composed) <= min(image_size(f), image_size(g))


# image_size


def test_image_sizes_of_the_bit_alphabet():
    assert image_size(IDENT) == 2
    assert image_size(RESET0) == 1
    assert image_size(RESET1) == 1


def test_image_size_trit_example():
    assert image_size(TRIT_F1) == 2


# compose_distributions


def test_point_identity_is_neutral():
    P = bits(F(1, 6), F(1, 6), F(2, 3), 0)
    assert compose_distributions(FunctionDistribution.point(IDENT), P) == P


def test_composition_with_constant_inner():
    coin = bits(F(1, 2), F(1, 2), 0, 0)
    result = compose_distributions(coin, FunctionDistribution.point(RESET0))
    assert result == bits(0, 0, F(1, 2), F(1, 2))


def test_constant_outer_absorbs_distributions():
    P = bits(F(1, 3), 0, F(1, 3), F(1, 3))
    top = FunctionDistribution.point(RESET1)
    assert compose_distributions(top, P) == FunctionDistribution.point(RESET1)


def test_composition_refuses_mismatched_sizes():
    with pytest.raises(SizeMismatch, match="^cannot chain codomain 3 into domain 2$"):
        compose_distributions(BUILTIN["bit1"], BUILTIN["trit_mix"])


@given(distributions(2, 2), distributions(2, 2))
def test_composition_matches_matrix_product(P, Q):
    composed = to_stochastic(compose_distributions(Q, P))
    left, right = to_stochastic(Q), to_stochastic(P)
    for y in range(2):
        for x in range(2):
            expect = sum(
                left.entries[y][m] * right.entries[m][x] for m in range(2)
            )
            assert composed.entries[y][x] == expect


@given(function_chains(length=2))
def test_composition_agrees_on_points(chain):
    f, g = chain
    point = compose_distributions(
        FunctionDistribution.point(f), FunctionDistribution.point(g)
    )
    assert point == FunctionDistribution.point(compose_functions(f, g))


# to_stochastic and its section


def test_coin_and_reset_mixture_induce_the_same_channel():
    coin = bits(F(1, 2), F(1, 2), 0, 0)
    resets = bits(0, 0, F(1, 2), F(1, 2))
    assert to_stochastic(coin) == RANDOMIZING
    assert to_stochastic(resets) == RANDOMIZING


def test_identity_point_induces_identity_channel():
    eye = StochasticMap(2, 2, ((F(1), F(0)), (F(0), F(1))))
    assert to_stochastic(FunctionDistribution.point(IDENT)) == eye


def test_preimage_of_randomizing_channel_is_uniform():
    quarter = F(1, 4)
    assert canonical_preimage(RANDOMIZING) == bits(quarter, quarter, quarter, quarter)


def test_preimage_of_identity_channel_is_the_identity_point():
    eye = StochasticMap(2, 2, ((F(1), F(0)), (F(0), F(1))))
    assert canonical_preimage(eye) == FunctionDistribution.point(IDENT)


def test_preimage_of_deterministic_mixture_channel():
    channel = StochasticMap(2, 2, ((F(2, 3), F(1)), (F(1, 3), F(0))))
    assert canonical_preimage(channel) == bits(0, F(1, 3), F(2, 3), 0)


@given(distributions(3, 2, max_support=5))
def test_preimage_is_a_section_of_the_channel_map(P):
    S = to_stochastic(P)
    assert to_stochastic(canonical_preimage(S)) == S
