"""Bit-to-bit characterization: parameters, monotones, canonical forms, Table rows."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import oracles
from causalres import (
    BUILTIN,
    FLIP,
    IDENT,
    RESET0,
    RESET1,
    BitParams,
    CanonicalForm,
    ExtremalComb,
    FiniteFunction,
    FunctionDistribution,
    MonotoneTriple,
    SizeMismatch,
    apply_extremal,
    bit_convertible_fast,
    bit_resource,
    canonical_form,
    know_convertible,
    monotone_triple,
    parametrize,
    table1_vertices,
    tetra_coords,
)
from strategies import as_dict, bit_distributions, bits, support_key

F = Fraction


def negate(value):
    return None if value is None else -value


# parametrize and its inverse


def test_parameters_of_bit4():
    assert parametrize(BUILTIN["bit4"]) == BitParams(F(1), F(1, 3), F(-1))


def test_parameters_of_the_fair_coin():
    params = parametrize(bits(F(1, 2), F(1, 2), 0, 0))
    assert params == BitParams(F(0), F(1), None)


def test_parameters_of_shared_resets():
    params = parametrize(bits(0, 0, F(1, 2), F(1, 2)))
    assert params == BitParams(None, F(0), F(0))


def test_parametrize_rejects_non_bits():
    trit = FunctionDistribution.point(FiniteFunction.identity(3))
    with pytest.raises(SizeMismatch):
        parametrize(trit)


def test_bit_resource_rejects_inconsistent_absences():
    with pytest.raises(ValueError):
        bit_resource(None, F(1, 2), F(0))
    with pytest.raises(ValueError):
        bit_resource(F(0), F(1), F(0))


@pytest.mark.parametrize(
    "alpha, beta, gamma",
    [
        (F(0), F(3, 2), F(0)),
        (F(0), F(-1, 2), F(0)),
        (F(3, 2), F(1, 2), F(0)),
        (F(-3, 2), F(1), None),
        (F(0), F(1, 2), F(5, 4)),
        (None, F(0), F(-5, 4)),
    ],
    ids=["beta>1", "beta<0", "alpha>1", "alpha<-1", "gamma>1", "gamma<-1"],
)
def test_parameters_outside_their_ranges_give_a_negative_weight(alpha, beta, gamma):
    with pytest.raises(ValueError, match="^negative weight -"):
        BitParams(alpha, beta, gamma)


@given(bit_distributions())
def test_parameters_round_trip(P):
    params = parametrize(P)
    assert bit_resource(params.alpha, params.beta, params.gamma) == P


@given(bit_distributions())
def test_parameter_absence_rules(P):
    params = parametrize(P)
    assert (params.alpha is None) == (params.beta == 0)
    assert (params.gamma is None) == (params.beta == 1)


# monotone_triple


def test_monotones_of_the_named_resources():
    assert monotone_triple(BUILTIN["bit1"]) == MonotoneTriple(F(1), F(0), F(1))
    assert monotone_triple(BUILTIN["bit2"]) == MonotoneTriple(F(0), None, F(0))
    assert monotone_triple(BUILTIN["bit4"]) == MonotoneTriple(F(1, 3), F(1), F(1))
    assert monotone_triple(BUILTIN["bit5"]) == MonotoneTriple(F(1, 3), F(1), F(1, 3))


def as_oracle_triple(P: FunctionDistribution):
    return oracles.monotone_triple(as_dict(P))


@given(bit_distributions())
def test_monotones_match_the_oracle(P):
    triple = monotone_triple(P)
    assert (triple.m_beta, triple.m_abs_alpha, triple.m_gamma_beta) == as_oracle_triple(P)


@pytest.mark.parametrize("name, beta", [("bit1", 1), ("bit3", 1), ("bit2", 0)])
def test_monotones_match_the_oracle_at_the_ends_of_beta(name, beta):
    triple = monotone_triple(BUILTIN[name])
    assert triple.m_beta == beta
    assert (triple.m_beta, triple.m_abs_alpha, triple.m_gamma_beta) == as_oracle_triple(
        BUILTIN[name]
    )


@given(bit_distributions())
def test_connection_monotone_caps_the_weight_monotone(P):
    triple = monotone_triple(P)
    assert triple.m_gamma_beta >= triple.m_beta
    if triple.m_beta == 1:
        assert triple.m_gamma_beta == 1


# canonical_form


def test_alpha_sign_is_not_part_of_the_class():
    left = bit_resource(F(-1, 2), F(1, 2), F(1, 2))
    right = bit_resource(F(1, 2), F(1, 2), F(-1, 2))
    assert canonical_form(left) == canonical_form(right)
    assert canonical_form(left) == CanonicalForm(F(1, 2), F(1, 2), F(1, 2))


def test_canonical_form_of_a_biased_reset_pair():
    P = bits(0, 0, F(1, 4), F(3, 4))
    assert canonical_form(P) == CanonicalForm(None, F(0), F(1, 2))


def test_canonical_form_of_the_identity_point():
    P = FunctionDistribution.point(IDENT)
    assert canonical_form(P) == CanonicalForm(F(1), F(1), None)


def form_through_parametrize(P: FunctionDistribution) -> CanonicalForm:
    params = parametrize(P)
    return CanonicalForm(
        None if params.alpha is None else abs(params.alpha),
        params.beta,
        None if params.gamma is None else abs(params.gamma),
    )


BIT_BUILTINS = [
    name
    for name, dist in BUILTIN.items()
    if (dist.domain_size, dist.codomain_size) == (2, 2)
]


@pytest.mark.parametrize("name", BIT_BUILTINS)
def test_canonical_form_of_a_builtin_matches_its_parameters(name):
    assert len(BIT_BUILTINS) == 16
    P = BUILTIN[name]
    assert canonical_form(P) == form_through_parametrize(P)


@settings(max_examples=100, deadline=None)
@given(bit_distributions())
def test_canonical_form_matches_the_parameters(P):
    assert canonical_form(P) == form_through_parametrize(P)


# the extremal-operation catalog, item by item


@given(bit_distributions())
def test_flip_then_identity_flips_alpha(P):
    result = apply_extremal(ExtremalComb(pre=FLIP, post=IDENT), P)
    before, after = parametrize(P), parametrize(result)
    assert after == BitParams(negate(before.alpha), before.beta, before.gamma)


@given(bit_distributions())
def test_identity_then_flip_flips_alpha_and_gamma(P):
    result = apply_extremal(ExtremalComb(pre=IDENT, post=FLIP), P)
    before, after = parametrize(P), parametrize(result)
    assert after == BitParams(
        negate(before.alpha), before.beta, negate(before.gamma)
    )


@given(bit_distributions())
def test_flip_on_both_sides_flips_gamma_only(P):
    result = apply_extremal(ExtremalComb(pre=FLIP, post=FLIP), P)
    before, after = parametrize(P), parametrize(result)
    assert after == BitParams(before.alpha, before.beta, negate(before.gamma))


@given(bit_distributions())
def test_reset_post_always_lands_on_a_point(P):
    for target, point in ((RESET0, RESET0), (RESET1, RESET1)):
        result = apply_extremal(ExtremalComb(pre=IDENT, post=target), P)
        assert result == FunctionDistribution.point(point)


@given(bit_distributions())
def test_reset_pre_produces_the_mixed_free_image(P):
    result = apply_extremal(ExtremalComb(pre=RESET0, post=IDENT), P)
    assert parametrize(result).beta == 0
    drift = (P.weight(FLIP) - P.weight(IDENT)) + (
        P.weight(RESET1) - P.weight(RESET0)
    )
    assert result == bits(0, 0, (1 - drift) / 2, (1 + drift) / 2)


@given(bit_distributions())
def test_reset_pre_with_flip_post_negates_the_drift(P):
    plain = apply_extremal(ExtremalComb(pre=RESET0, post=IDENT), P)
    flipped = apply_extremal(ExtremalComb(pre=RESET0, post=FLIP), P)
    assert flipped == bits(
        0, 0, plain.weight(RESET1), plain.weight(RESET0)
    )


@given(bit_distributions())
def test_canonical_form_survives_the_sign_flips(P):
    for comb in (ExtremalComb(FLIP, IDENT), ExtremalComb(FLIP, FLIP)):
        assert canonical_form(apply_extremal(comb, P)) == canonical_form(P)


# bit_convertible_fast


def test_fast_rule_on_the_figure_pair():
    assert bit_convertible_fast(BUILTIN["bit4"], BUILTIN["bit5"])


def test_fast_rule_separates_the_gamma_pair():
    assert not bit_convertible_fast(
        BUILTIN["mono_gamma_a"], BUILTIN["mono_gamma_b"]
    )


def test_fast_rule_accepts_the_beta_pair():
    assert bit_convertible_fast(BUILTIN["mono_beta_a"], BUILTIN["mono_beta_b"])


def test_free_source_cannot_reach_nonfree_targets():
    assert not bit_convertible_fast(BUILTIN["bit2"], BUILTIN["bit5"])
    assert bit_convertible_fast(BUILTIN["bit5"], BUILTIN["bit2"])


@settings(max_examples=60, deadline=None)
@given(bit_distributions(), bit_distributions())
def test_fast_rule_agrees_with_the_hull_test(P, Q):
    assert bit_convertible_fast(P, Q) == bool(know_convertible(P, Q))


# table1_vertices


def test_vertices_at_the_centered_parameters():
    P = bit_resource(F(1, 2), F(1, 2), F(1, 2))
    expected = [
        bits(F(1, 8), F(3, 8), F(1, 8), F(3, 8)),
        FunctionDistribution.point(RESET0),
        FunctionDistribution.point(RESET1),
        bits(F(3, 8), F(1, 8), F(1, 8), F(3, 8)),
        bits(F(3, 8), F(1, 8), F(3, 8), F(1, 8)),
        bits(F(1, 8), F(3, 8), F(3, 8), F(1, 8)),
    ]
    assert sorted(table1_vertices(P), key=support_key) == sorted(
        expected, key=support_key
    )


def test_vertices_collapse_for_free_resources():
    P = bits(0, 0, F(1, 4), F(3, 4))
    assert sorted(table1_vertices(P), key=support_key) == sorted(
        [FunctionDistribution.point(RESET0), FunctionDistribution.point(RESET1)],
        key=support_key,
    )


def test_vertices_of_bit4():
    expected = [
        BUILTIN["bit4"],
        FunctionDistribution.point(RESET0),
        FunctionDistribution.point(RESET1),
        bits(F(1, 3), 0, F(2, 3), 0),
        bits(F(1, 3), 0, 0, F(2, 3)),
        bits(0, F(1, 3), 0, F(2, 3)),
    ]
    assert sorted(table1_vertices(BUILTIN["bit4"]), key=support_key) == sorted(
        expected, key=support_key
    )


@given(bit_distributions())
@example(bits(F(1, 3), F(2, 3), 0, 0))  # beta = 1: gamma is undefined
@example(bits(F(1, 4), F(1, 4), F(1, 8), F(3, 8)))  # alpha = 0
@example(bits(0, 0, F(1, 4), F(3, 4)))  # beta = 0
def test_vertices_are_the_sign_flips_of_the_parameters(P):
    alpha, beta, gamma = oracles.bit_params(as_dict(P))
    if beta == 0:
        rows = [{oracles.RESET0: 1}, {oracles.RESET1: 1}]
    else:
        rows = [
            as_dict(P),
            {oracles.RESET0: 1},
            {oracles.RESET1: 1},
            oracles.bit_weights(negate(alpha), beta, gamma),
            oracles.bit_weights(negate(alpha), beta, negate(gamma)),
            oracles.bit_weights(alpha, beta, negate(gamma)),
        ]
    expected = [row for i, row in enumerate(rows) if row not in rows[:i]]
    assert [as_dict(V) for V in table1_vertices(P)] == expected


# tetra_coords


def test_pure_identity_sits_on_its_vertex():
    assert tetra_coords(FunctionDistribution.point(IDENT)) == (F(0), F(0), F(0))


def test_uniform_mixture_sits_at_the_centroid():
    quarter = F(1, 4)
    P = bits(quarter, quarter, quarter, quarter)
    assert tetra_coords(P) == (F(1, 2), F(1, 2), F(1, 2))


def test_fair_coin_sits_on_the_connected_edge_midpoint():
    P = bits(F(1, 2), F(1, 2), 0, 0)
    assert tetra_coords(P) == (F(1, 2), F(1, 2), F(0))


@given(bit_distributions())
def test_tetra_coords_are_the_weighted_sum_of_the_corners(P):
    corners = {IDENT: (0, 0, 0), FLIP: (1, 1, 0), RESET0: (1, 0, 1), RESET1: (0, 1, 1)}
    expected = tuple(sum(w * corners[f][i] for f, w in P.items()) for i in range(3))
    assert tetra_coords(P) == expected


# cost construction, spot checks


def probe(epsilon):
    alpha = None if epsilon == 0 else F(-1)
    gamma = None if epsilon == 1 else F(0)
    return bit_resource(alpha, F(epsilon), gamma)


def test_probe_at_the_connection_monotone_reaches_bit7():
    level = monotone_triple(BUILTIN["bit7"]).m_gamma_beta
    assert level == F(3, 7)
    assert know_convertible(probe(level), BUILTIN["bit7"])
    assert not know_convertible(probe(level - F(1, 64)), BUILTIN["bit7"])
