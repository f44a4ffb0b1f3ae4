from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from causalres import (
    BUILTIN,
    IDENT,
    RESET0,
    BetaSpectrum,
    ExtremalComb,
    FiniteFunction,
    FunctionDistribution,
    SizeMismatch,
    alt_convertible,
    apply_extremal,
    beta_vector,
    cumulative_monotones,
    know_convertible,
    parametrize,
)
from strategies import bit_distributions, distributions, random_distribution, random_function

F = Fraction

TRIT_F2 = FiniteFunction(3, 3, (0, 0, 2))
TRIT_F3 = FiniteFunction(3, 3, (0, 2, 2))


def test_spectrum_of_the_trit_example():
    assert beta_vector(BUILTIN["trit_mix"]).weights == (F(0), F(2, 3), F(1, 3))


def test_spectrum_of_a_pure_identity():
    P = FunctionDistribution.point(FiniteFunction.identity(3))
    assert beta_vector(P).weights == (F(0), F(0), F(1))


@given(bit_distributions())
def test_bit_spectrum_recovers_the_connected_weight(P):
    spectrum = beta_vector(P)
    assert spectrum.weights[1] == parametrize(P).beta


def test_spectrum_validation():
    with pytest.raises(ValueError):
        BetaSpectrum((F(1, 2), F(1, 3)))
    spectrum = beta_vector(BUILTIN["trit_mix"])
    with pytest.raises(ValueError):
        spectrum.weight(0)


def test_spectrum_weight_is_zero_beyond_the_stored_range():
    spectrum = beta_vector(BUILTIN["trit_mix"])
    assert [spectrum.weight(k) for k in (1, 2, 3, 4, 10)] == [0, F(2, 3), F(1, 3), 0, 0]


def test_cumulative_sums_of_the_trit_example():
    assert cumulative_monotones(BUILTIN["trit_mix"]) == (F(1, 3), F(1), F(1))


def test_cumulative_sums_of_a_two_image_point():
    assert cumulative_monotones(FunctionDistribution.point(TRIT_F2)) == (
        F(0),
        F(1),
        F(1),
    )


def test_free_resources_have_vanishing_tails():
    P = FunctionDistribution.point(FiniteFunction.constant(3, 3, 1))
    assert cumulative_monotones(P) == (F(0), F(0), F(1))


@given(distributions(3, 3, max_support=5))
def test_the_coarsest_sum_is_always_one(P):
    assert cumulative_monotones(P)[-1] == 1


def test_cumulative_sums_of_a_wide_point_take_one_pass():
    P = FunctionDistribution.point(FiniteFunction(1, 3000, (0,)))
    start = time.perf_counter()
    tails = cumulative_monotones(P)
    assert time.perf_counter() - start < 1
    assert tails == (F(0),) * 2999 + (F(1),)


SIGNATURES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]


def oracle_tails(P: FunctionDistribution) -> list[Fraction]:
    """Tail sums of the oracle spectrum, largest image size first."""
    weights = oracles.spectrum({f.outputs: w for f, w in P.items()}, P.codomain_size)
    return [sum(weights[k:], F(0)) for k in reversed(range(len(weights)))]


@given(st.sampled_from(SIGNATURES).flatmap(lambda dc: distributions(*dc, max_support=5)))
def test_cumulative_sums_match_the_oracle_spectrum(P):
    tails = cumulative_monotones(P)
    assert list(tails) == oracle_tails(P)
    assert all(type(t) is Fraction for t in tails)


@given(
    st.sampled_from(SIGNATURES).flatmap(lambda dc: distributions(*dc, max_support=5)),
    st.integers(1, 3),
)
def test_cumulative_of_a_spectrum_matches_the_monotones(P, beyond):
    spectrum = beta_vector(P)
    n = P.codomain_size
    tails = cumulative_monotones(P)
    assert [spectrum.cumulative(k) for k in range(1, n + 1)] == list(reversed(tails))
    assert spectrum.cumulative(n + beyond) == 0
    with pytest.raises(ValueError, match="image sizes start at 1"):
        spectrum.cumulative(1 - beyond)


@given(
    st.sampled_from(SIGNATURES).flatmap(
        lambda dc: st.tuples(
            distributions(*dc, max_support=5), distributions(*dc, max_support=5)
        )
    )
)
def test_dominance_matches_the_oracle_tails(pair):
    P, Q = pair
    dominates = all(p >= q for p, q in zip(oracle_tails(P), oracle_tails(Q)))
    assert alt_convertible(P, Q) == dominates


def test_identity_and_coin_dominate_each_other():
    coin = FunctionDistribution(
        2, 2, {IDENT: F(1, 2), FiniteFunction(2, 2, (1, 0)): F(1, 2)}
    )
    eye = FunctionDistribution.point(IDENT)
    assert alt_convertible(eye, coin)
    assert alt_convertible(coin, eye)


def test_partial_connection_cannot_dominate_certainty():
    assert not alt_convertible(BUILTIN["bit4"], FunctionDistribution.point(IDENT))


@given(distributions(2, 2), distributions(3, 2, max_support=5))
def test_constant_targets_are_always_dominated(P, Q):
    target = FunctionDistribution.point(RESET0)
    assert alt_convertible(P, target)
    assert alt_convertible(Q, target)


def test_spectra_of_unequal_codomains_do_not_compare():
    with pytest.raises(SizeMismatch):
        alt_convertible(BUILTIN["bit1"], BUILTIN["trit_mix"])


def test_squeezing_the_trit_example_trades_tail_weight():
    comb = ExtremalComb(pre=TRIT_F2, post=TRIT_F3)
    squeezed = apply_extremal(comb, BUILTIN["trit_mix"])
    assert squeezed == FunctionDistribution.point(TRIT_F2)
    before = beta_vector(BUILTIN["trit_mix"])
    after = beta_vector(squeezed)
    assert after.weights[1] > before.weights[1]
    assert after.weights[2] < before.weights[2]


@settings(max_examples=30, deadline=None)
@given(distributions(3, 3, max_support=4))
def test_tail_sums_never_grow_under_extremal_operations(P):
    rng = random.Random(5)
    before = cumulative_monotones(P)
    for _ in range(5):
        comb = ExtremalComb(random_function(rng, 3, 3), random_function(rng, 3, 3))
        after = cumulative_monotones(apply_extremal(comb, P))
        assert all(b >= a for b, a in zip(before, after))


def test_hull_conversion_implies_tail_dominance_on_samples():
    rng = random.Random(11)
    confirmed = 0
    for _ in range(40):
        P = random_distribution(rng, 2, 2, denominator=8)
        Q = random_distribution(rng, 2, 2, denominator=8)
        if know_convertible(P, Q):
            assert alt_convertible(P, Q)
            confirmed += 1
    assert confirmed > 0


def test_tail_dominance_does_not_imply_hull_conversion():
    source, target = BUILTIN["incomp_a"], BUILTIN["incomp_b"]
    assert alt_convertible(source, target)
    assert not know_convertible(source, target)
