"""Validation of the exact value types: distributions, probability vectors, combs."""

from __future__ import annotations

import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalres import (
    FLIP,
    IDENT,
    BetaSpectrum,
    CombMixture,
    DeterministicWitness,
    ExtremalComb,
    FiniteFunction,
    FunctionDistribution,
    Prior,
    SizeMismatch,
    StochasticMap,
    enumerate_extremal_combs,
)
from causalres.core import exact, probability_vector

F = Fraction

BIT_COMB = ExtremalComb(IDENT, FLIP)
# Maps a 2->2 resource to a 3->2 one, so its signature differs from BIT_COMB's.
WIDE_COMB = ExtremalComb(FiniteFunction(3, 2, (0, 1, 1)), IDENT)


# CombMixture


def test_mixture_rejects_mixed_comb_signatures():
    with pytest.raises(SizeMismatch):
        CombMixture({BIT_COMB: F(1, 2), WIDE_COMB: F(1, 2)})


def test_mixture_rejects_keys_that_are_not_combs():
    with pytest.raises(TypeError):
        CombMixture({IDENT: F(1)})


def test_function_distribution_rejects_keys_that_are_not_functions():
    with pytest.raises(TypeError, match="support keys must be functions"):
        FunctionDistribution(2, 2, {BIT_COMB: F(1)})


def test_mixture_rejects_float_weights():
    with pytest.raises(TypeError):
        CombMixture({BIT_COMB: 1.0})


def test_mixture_rejects_negative_weights():
    with pytest.raises(ValueError):
        CombMixture({BIT_COMB: F(3, 2), ExtremalComb(FLIP, FLIP): F(-1, 2)})


def test_mixture_rejects_weights_short_of_one():
    with pytest.raises(ValueError):
        CombMixture({BIT_COMB: F(1, 2)})


# the weight rule, checked on raw weights before repeats add up


@pytest.mark.parametrize(
    "make, outcomes",
    [
        (lambda pairs: FunctionDistribution(2, 2, pairs), (IDENT, FLIP)),
        (CombMixture, (BIT_COMB, ExtremalComb(FLIP, FLIP))),
    ],
    ids=["FunctionDistribution", "CombMixture"],
)
def test_distributions_refuse_a_negative_weight_that_a_repeat_cancels(make, outcomes):
    first, second = outcomes
    with pytest.raises(ValueError, match="negative weight -1/4"):
        make([(first, F(3, 4)), (first, F(-1, 4)), (second, F(1, 2))])


# the weight grammar: every string weight goes through `core.exact`


@pytest.mark.parametrize(
    "text",
    ["1_0/20", " 1/2", "1/2 ", "\u0663/4", "1e-3"],
    ids=["underscore", "leading space", "trailing space", "arabic-indic digit", "exponent"],
)
def test_exact_refuses_strings_outside_the_grammar(text):
    # `Fraction` takes each of these on some Python version.
    with pytest.raises(ValueError, match=f"^{re.escape(f'not a fraction: {text!r}')}$"):
        exact(text)


@pytest.mark.parametrize(
    "text, value", [("1/3", F(1, 3)), ("-2", F(-2)), (".5", F(1, 2)), ("1.", F(1))]
)
def test_exact_takes_integers_fractions_and_decimals(text, value):
    assert exact(text) == value


@pytest.mark.parametrize(
    "make, outcome",
    [
        (lambda pairs: FunctionDistribution(1, 1, pairs), FiniteFunction(1, 1, (0,))),
        (CombMixture, BIT_COMB),
    ],
    ids=["FunctionDistribution", "CombMixture"],
)
def test_a_library_weight_with_an_exponent_is_refused_at_once(make, outcome):
    # Fraction("1e-8000000") builds an eight-million-digit integer first.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a fraction: '1e-8000000'"):
        make({outcome: "1e-8000000"})
    assert time.perf_counter() - start < 1


# immutability and equality across the two distribution types


@pytest.mark.parametrize(
    "value",
    [FunctionDistribution.point(IDENT), CombMixture.point(BIT_COMB)],
    ids=["FunctionDistribution", "CombMixture"],
)
@pytest.mark.parametrize("attribute", ["_items", "_support", "domain_size", "extra"])
def test_distributions_refuse_setattr(value, attribute):
    with pytest.raises(AttributeError):
        setattr(value, attribute, None)


def test_a_mixture_never_equals_a_function_distribution():
    mixture = CombMixture.point(BIT_COMB)
    dist = FunctionDistribution.point(IDENT)
    assert mixture != dist
    assert dist != mixture
    assert not mixture == dist
    assert len({mixture, dist}) == 2


# probability vectors


def test_prior_rejects_floats():
    with pytest.raises(TypeError):
        Prior(weights=(0.5, 0.5))


def test_spectrum_rejects_a_negative_entry():
    with pytest.raises(ValueError):
        BetaSpectrum((F(3, 2), F(-1, 2)))


def test_spectrum_rejects_floats():
    with pytest.raises(TypeError):
        BetaSpectrum((0.5, 0.5))


def test_stochastic_map_rejects_a_negative_entry():
    with pytest.raises(ValueError):
        StochasticMap(2, 2, ((F(3, 2), F(0)), (F(-1, 2), F(1))))


def test_stochastic_map_rejects_floats():
    with pytest.raises(TypeError):
        StochasticMap(2, 2, ((0.5, 1.0), (0.5, 0.0)))


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), max_size=6))
def test_probability_vectors_sum_exactly(values):
    """The integer sum over a common denominator accepts exactly the vectors
    whose `Fraction` sum is one."""
    total = sum(values, F(0))
    if total:
        scaled = [v / total for v in values]
        assert probability_vector(scaled, "weight") == tuple(scaled)
    if total != 1:
        with pytest.raises(ValueError, match="weights must sum to exactly 1"):
            probability_vector(values, "weight")


def test_stochastic_map_rejects_a_wrong_shape():
    with pytest.raises(ValueError):
        StochasticMap(2, 2, ((F(1), F(1)),))


# alphabet sizes, one rule for every caller


@pytest.mark.parametrize("size", [0, -1, True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda n: FiniteFunction(n, 2, (0, 0)),
        lambda n: FiniteFunction(2, n, (0, 0)),
        lambda n: StochasticMap(n, 1, ((F(1), F(1)),)),
        lambda n: StochasticMap(1, n, ((F(1),),)),
        Prior.uniform,
        lambda n: enumerate_extremal_combs(n, 2, 2, 2),
        lambda n: enumerate_extremal_combs(2, 2, 2, n),
    ],
    ids=[
        "function-domain",
        "function-codomain",
        "map-input",
        "map-output",
        "uniform-prior",
        "comb-source",
        "comb-target",
    ],
)
def test_alphabet_sizes_must_be_positive_integers(build, size):
    with pytest.raises(ValueError, match="size must be a positive integer$"):
        build(size)


# natural order: by table within one signature


def test_functions_of_one_signature_sort_by_table():
    functions = [FiniteFunction(2, 3, t) for t in ((2, 0), (0, 2), (1, 1), (0, 1))]
    assert [f.outputs for f in sorted(functions)] == [(0, 1), (0, 2), (1, 1), (2, 0)]


def test_combs_of_one_signature_sort_by_pre_then_post():
    combs = [ExtremalComb(FLIP, IDENT), ExtremalComb(IDENT, FLIP), ExtremalComb(IDENT, IDENT)]
    assert sorted(combs) == [combs[2], combs[1], combs[0]]
    mixture = CombMixture({c: F(1, 3) for c in combs})
    assert [c for c, _ in mixture.items()] == sorted(combs)


# one (pre, post) pair


def test_witness_and_comb_are_one_type():
    assert DeterministicWitness is ExtremalComb
