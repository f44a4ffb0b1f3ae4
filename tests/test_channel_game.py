from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from causalres import (
    BUILTIN,
    FLIP,
    IDENT,
    RESET0,
    RESET1,
    FiniteFunction,
    FunctionDistribution,
    Prior,
    SizeMismatch,
    StochasticMap,
    ZeroMarginal,
    ace,
    ace_dist,
    apply_mixture,
    guessing_probability,
    max_postselected_connection,
    min_beta_over_preimage,
    monotone_triple,
    parametrize,
    posterior_causal_connection,
    to_stochastic,
)
from strategies import (
    as_dict,
    bit_distributions,
    bits,
    distributions,
    random_bit_distribution,
    random_comb_mixture,
)

F = Fraction

RANDOMIZING = StochasticMap(2, 2, ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))))
EYE = StochasticMap(2, 2, ((F(1), F(0)), (F(0), F(1))))


def test_prior_validation():
    with pytest.raises(ValueError):
        Prior(weights=(F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        Prior(weights=(F(3, 2), F(-1, 2)))
    assert Prior.uniform(4).weights == (F(1, 4),) * 4


def test_guessing_the_named_resources():
    assert guessing_probability(BUILTIN["bit4"]) == F(2, 3)
    assert guessing_probability(BUILTIN["bit5"]) == F(2, 3)


def test_guessing_through_a_pure_identity():
    assert guessing_probability(FunctionDistribution.point(IDENT)) == 1


def test_guessing_is_prior_sensitive():
    skew = Prior(weights=(F(9, 10), F(1, 10)))
    assert guessing_probability(BUILTIN["bit2"], skew) == F(9, 10)


def test_guessing_rejects_mismatched_priors():
    with pytest.raises(SizeMismatch):
        guessing_probability(BUILTIN["bit1"], Prior.uniform(3))


def test_guessing_beyond_bits():
    assert guessing_probability(BUILTIN["trit_mix"]) == F(2, 3)


@pytest.mark.parametrize("dom, cod", [(2, 2), (2, 3), (3, 2), (3, 3)])
@settings(max_examples=40)
@given(data=st.data())
def test_guessing_matches_the_channel_oracle(dom, cod, data):
    P = data.draw(distributions(dom, cod))
    assert guessing_probability(P) == oracles.guessing(as_dict(P), dom, cod)
    raw = data.draw(st.lists(st.integers(0, 8), min_size=dom, max_size=dom).filter(any))
    prior = Prior(weights=tuple(F(n, sum(raw)) for n in raw))
    rows = oracles.channel(as_dict(P), dom, cod)
    assert guessing_probability(P, prior) == sum(
        max(prior.weights[x] * row[x] for x in range(dom)) for row in rows
    )


def test_guessing_reads_only_the_support():
    # A 1->10^6 point mass: the dense channel has a million entries.
    P = FunctionDistribution.point(FiniteFunction(1, 10**6, (0,)))
    start = time.perf_counter()
    assert guessing_probability(P) == 1
    assert time.perf_counter() - start < 2


@settings(max_examples=80)
@given(bit_distributions(), st.sampled_from((0, 1)))
@example(FunctionDistribution.point(RESET0), 1)
@example(bits(0, 0, F(1, 3), F(2, 3)), 0)
@example(bits(0, 0, F(1, 3), F(2, 3)), 1)
@example(bits(F(1, 4), F(3, 4), 0, 0), 0)
@example(bits(F(1, 4), F(3, 4), 0, 0), 1)
def test_posterior_matches_the_oracle(P, y):
    try:
        expected = oracles.posterior_connected(as_dict(P), y)
    except ZeroDivisionError:
        with pytest.raises(ZeroMarginal):
            posterior_causal_connection(P, y)
    else:
        assert posterior_causal_connection(P, y) == expected


def test_posterior_certainty_for_bit4():
    assert posterior_causal_connection(BUILTIN["bit4"], 1) == 1


def test_posterior_for_bit5():
    assert posterior_causal_connection(BUILTIN["bit5"], 1) == F(1, 3)


def test_posterior_on_the_unlikely_output():
    assert posterior_causal_connection(BUILTIN["bit4"], 0) == F(1, 5)


def test_posterior_of_free_resources_vanishes():
    assert posterior_causal_connection(BUILTIN["bit2"], 0) == 0


def test_posterior_requires_a_bit_output():
    with pytest.raises(ValueError, match="output 2 is not a bit"):
        posterior_causal_connection(BUILTIN["bit4"], 2)


def test_posterior_requires_a_reachable_output():
    with pytest.raises(ZeroMarginal):
        posterior_causal_connection(FunctionDistribution.point(RESET0), 1)


def test_best_postselection_on_the_named_resources():
    assert max_postselected_connection(BUILTIN["bit4"]) == 1
    assert max_postselected_connection(BUILTIN["bit5"]) == F(1, 3)


def test_full_connection_weight_forces_certainty():
    assert max_postselected_connection(BUILTIN["bit1"]) == 1
    assert max_postselected_connection(BUILTIN["bit3"]) == 1


@settings(max_examples=80)
@given(bit_distributions())
@example(FunctionDistribution.point(RESET0))  # output 1 never occurs
@example(bits(F(1, 4), F(3, 4), 0, 0))  # beta = 1
@example(bits(F(1, 6), F(1, 3), F(1, 4), F(1, 4)))  # w_R0 = w_R1
def test_best_postselection_matches_the_oracle(P):
    observable = []
    for y in (0, 1):
        try:
            observable.append(oracles.posterior_connected(as_dict(P), y))
        except ZeroDivisionError:
            continue
    assert max_postselected_connection(P) == max(observable)


@settings(max_examples=80)
@given(bit_distributions())
def test_best_postselection_matches_the_connection_monotone(P):
    assert max_postselected_connection(P) == monotone_triple(P).m_gamma_beta


def test_ace_of_reference_channels():
    assert ace(RANDOMIZING) == 0
    assert ace(EYE) == 1
    assert ace(to_stochastic(BUILTIN["bit4"])) == F(-1, 3)


def test_ace_from_the_resource_weights():
    assert ace_dist(BUILTIN["bit3"]) == F(1, 3)
    assert ace_dist(BUILTIN["bit1"]) == 0
    assert ace_dist(FunctionDistribution.point(FLIP)) == -1


def test_ace_rejects_larger_alphabets():
    with pytest.raises(SizeMismatch):
        ace_dist(BUILTIN["trit_mix"])
    with pytest.raises(SizeMismatch):
        ace(StochasticMap(2, 3, ((F(1), F(0)), (F(0), F(1)), (F(0), F(0)))))


@given(bit_distributions())
def test_both_ace_forms_agree(P):
    assert ace_dist(P) == ace(to_stochastic(P))


@given(bit_distributions())
def test_ace_magnitude_factors_through_the_parameters(P):
    params = parametrize(P)
    expected = 0 if params.alpha is None else params.beta * abs(params.alpha)
    assert abs(ace_dist(P)) == expected


def test_fiber_minimum_of_the_randomizing_channel():
    bound, witness = min_beta_over_preimage(RANDOMIZING)
    assert bound == 0
    assert witness == bits(0, 0, F(1, 2), F(1, 2))


def test_fiber_minimum_of_the_identity_channel():
    bound, witness = min_beta_over_preimage(EYE)
    assert bound == 1
    assert witness == FunctionDistribution.point(IDENT)


def test_fiber_minimum_recovers_bit4():
    bound, witness = min_beta_over_preimage(to_stochastic(BUILTIN["bit4"]))
    assert bound == F(1, 3)
    assert witness == BUILTIN["bit4"]


@given(bit_distributions())
@example(FunctionDistribution.point(IDENT))
@example(FunctionDistribution.point(FLIP))
@example(FunctionDistribution.point(RESET0))
@example(FunctionDistribution.point(RESET1))
@example(bits(F(1, 8), F(1, 8), F(1, 2), F(1, 4)))  # S(1|0) = S(1|1) = 3/8
def test_connection_weight_dominates_the_ace(P):
    S = to_stochastic(P)
    bound, witness = min_beta_over_preimage(S)
    assert parametrize(P).beta >= bound
    assert to_stochastic(witness) == S
    assert parametrize(witness).beta == bound


def test_ace_magnitude_shrinks_under_free_operations():
    rng = random.Random(13)
    for _ in range(200):
        P = random_bit_distribution(rng, denominator=16)
        mixture = random_comb_mixture(rng, 2, 2, 2, 2)
        assert abs(ace_dist(apply_mixture(mixture, P))) <= abs(ace_dist(P))


def test_bijective_points_are_always_guessable():
    for outputs in ((0, 1), (1, 0)):
        P = FunctionDistribution.point(FiniteFunction(2, 2, outputs))
        assert guessing_probability(P) == 1


def test_free_resources_reveal_only_the_prior_maximum():
    rng = random.Random(3)
    for _ in range(30):
        weights = [F(n, 8) for n in (1, 3, 4)]
        rng.shuffle(weights)
        prior = Prior(weights=tuple(weights))
        constant = FiniteFunction.constant(3, 3, rng.choice((1, 2)))
        mixed = FunctionDistribution(
            3, 3, {constant: F(1, 2), FiniteFunction.constant(3, 3, 0): F(1, 2)}
        )
        assert guessing_probability(mixed, prior) == max(weights)
