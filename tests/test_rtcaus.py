from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalres import (
    FLIP,
    IDENT,
    RESET0,
    RESET1,
    FiniteFunction,
    NotConvertible,
    all_functions,
    caus_convertible,
    caus_monotone,
    compose_functions,
    conversion_witness,
    image_size,
    is_free_function,
)
from oracles import all_tables, expected_witness, witness_search
from strategies import function_chains, functions, sized_functions


def recomposes(witness, f, g) -> bool:
    return compose_functions(witness.post, compose_functions(f, witness.pre)) == g


def test_resets_are_free():
    assert is_free_function(RESET0)
    assert is_free_function(RESET1)


def test_identity_is_not_free():
    assert not is_free_function(IDENT)


def test_constant_on_larger_domain_is_free():
    assert is_free_function(FiniteFunction.constant(3, 3, 2))


def test_identity_dominates_reset():
    assert caus_convertible(IDENT, RESET0)


def test_reset_cannot_reach_flip():
    assert not caus_convertible(RESET0, FLIP)


def test_smaller_image_cannot_reach_larger():
    two = FiniteFunction(3, 3, (0, 0, 1))
    three = FiniteFunction.identity(3)
    assert not caus_convertible(two, three)
    assert caus_convertible(three, two)


def test_influence_of_the_bit_functions():
    assert caus_monotone(IDENT).bits == 1.0
    assert caus_monotone(RESET1).bits == 0.0


def test_influence_of_larger_identities():
    record = caus_monotone(FiniteFunction.identity(4))
    assert record.image_size == 4
    assert record.bits == 2.0


def test_witness_for_identity_to_flip():
    witness = conversion_witness(IDENT, FLIP)
    assert recomposes(witness, IDENT, FLIP)


def test_witness_refused_below_image_threshold():
    with pytest.raises(NotConvertible):
        conversion_witness(RESET0, IDENT)


@given(functions(3, 3), st.integers(0, 2))
def test_every_function_reaches_constants(f, value):
    g = FiniteFunction.constant(3, 3, value)
    witness = conversion_witness(f, g)
    assert recomposes(witness, f, g)


@given(sized_functions(max_size=4), sized_functions(max_size=4))
def test_the_order_is_total(f, g):
    assert caus_convertible(f, g) or caus_convertible(g, f)


@given(sized_functions(), sized_functions())
def test_witnesses_exist_exactly_on_the_image_order(f, g):
    if caus_convertible(f, g):
        assert recomposes(conversion_witness(f, g), f, g)
    else:
        with pytest.raises(NotConvertible):
            conversion_witness(f, g)


@given(function_chains(length=3))
def test_influence_never_grows_under_sandwiching(chain):
    post, f, pre = chain
    squeezed = compose_functions(post, compose_functions(f, pre))
    assert caus_monotone(squeezed).image_size <= caus_monotone(f).image_size


def test_image_rule_matches_exhaustive_search_on_small_alphabets():
    pool = [
        f
        for d in (1, 2)
        for c in (1, 2)
        for f in all_functions(d, c)
    ]
    for f in pool:
        for g in pool:
            found = witness_search(
                f.outputs, f.codomain_size, g.outputs, g.codomain_size
            )
            assert caus_convertible(f, g) == (found is not None)


def test_witness_follows_the_documented_tie_breaking():
    # The pool of acceptance criterion 9: every table with alphabets of at
    # most three letters.
    pool = [
        FiniteFunction(d, c, table)
        for d in (1, 2, 3)
        for c in (1, 2, 3)
        for table in all_tables(d, c)
    ]
    checked = 0
    for f in pool:
        for g in pool:
            if image_size(f) < image_size(g):
                continue
            witness = conversion_witness(f, g)
            expected = expected_witness(f.outputs, f.codomain_size, g.outputs)
            assert (witness.pre.outputs, witness.post.outputs) == expected, (f, g)
            checked += 1
    assert checked == 2260
