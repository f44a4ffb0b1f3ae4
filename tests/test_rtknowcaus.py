from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from causalres import (
    BUILTIN,
    DEFAULT_COMB_BUDGET,
    FLIP,
    IDENT,
    RESET0,
    RESET1,
    CombMixture,
    ExtremalComb,
    FiniteFunction,
    FunctionDistribution,
    HasseGraph,
    ResourceBudgetExceeded,
    SizeMismatch,
    StochasticMap,
    all_functions,
    apply_extremal,
    apply_mixture,
    bit_resource,
    canonical_form,
    canonical_preimage,
    compose_distributions,
    downward_closure_vertices,
    enumerate_extremal_combs,
    hasse,
    is_free_resource,
    know_convertible,
)
from causalres import rtknowcaus
from causalres.exactlp import convex_weights
from causalres.rtknowcaus import (
    _check_comb_budget,
    _distinct_images,
    _hull_weights,
    _image,
)
from strategies import (
    as_dict,
    bit_distributions,
    bits,
    distributions,
    random_bit_distribution,
    random_function,
    support_key,
)

F = Fraction


def asking(asked: list):
    """`know_convertible`, recording each (P, Q) it is asked in `asked`."""

    def counted(P, Q, budget=DEFAULT_COMB_BUDGET):
        asked.append((P, Q))
        return know_convertible(P, Q, budget=budget)

    return counted


COIN = bits(F(1, 2), F(1, 2), 0, 0)
RESETS = bits(0, 0, F(1, 2), F(1, 2))
STUCK = bits(F(1, 2), 0, F(1, 2), 0)


def test_reset_mixtures_are_free():
    assert is_free_resource(RESETS)
    assert is_free_resource(FunctionDistribution.point(RESET0))


def test_nonconstant_support_is_not_free():
    assert not is_free_resource(FunctionDistribution.point(IDENT))
    assert not is_free_resource(BUILTIN["bit5"])


def test_bit_comb_count():
    assert len(enumerate_extremal_combs(2, 2, 2, 2)) == 16


def test_trit_comb_count():
    assert len(enumerate_extremal_combs(3, 3, 3, 3)) == 729


def test_comb_count_with_unit_target_domain():
    assert len(enumerate_extremal_combs(2, 2, 1, 2)) == 8


def test_comb_budget_is_enforced_before_materialization():
    with pytest.raises(ResourceBudgetExceeded):
        enumerate_extremal_combs(4, 4, 4, 4, budget=100)


def test_budget_is_checked_before_the_identity_shortcut():
    P = BUILTIN["bit4"]
    message = "16 extremal combs exceed the budget of 1"
    with pytest.raises(ResourceBudgetExceeded, match=message):
        know_convertible(P, P, budget=1)
    with pytest.raises(ResourceBudgetExceeded, match=message):
        downward_closure_vertices(P, budget=1)


def test_hasse_checks_the_budget_on_equal_resources():
    P = BUILTIN["bit4"]
    with pytest.raises(ResourceBudgetExceeded, match="16 extremal combs exceed the budget of 3"):
        hasse([("a", P), ("b", P)], budget=3)


def test_hasse_checks_the_budget_on_a_single_resource(monkeypatch):
    # The budget is checked before any question, not by asking one.
    asked = []
    monkeypatch.setattr(rtknowcaus, "know_convertible", asking(asked))
    with pytest.raises(ResourceBudgetExceeded, match="^16 extremal combs exceed the budget of 3$"):
        hasse([("a", BUILTIN["bit4"])], budget=3)
    assert asked == []


@pytest.mark.parametrize("budget", [2.5, None, "100", True, False, -1], ids=repr)
def test_the_budget_must_be_a_nonnegative_integer(budget):
    P = BUILTIN["bit1"]
    message = "^budget must be a nonnegative integer$"
    with pytest.raises(ValueError, match=message):
        know_convertible(P, P, budget=budget)
    with pytest.raises(ValueError, match=message):
        downward_closure_vertices(P, budget=budget)
    with pytest.raises(ValueError, match=message):
        enumerate_extremal_combs(2, 2, 2, 2, budget=budget)
    with pytest.raises(ValueError, match=message):
        hasse([("a", P)], budget=budget)


@pytest.mark.parametrize("budget", ["x", -5], ids=repr)
def test_hasse_of_no_resources_still_checks_the_budget(budget):
    with pytest.raises(ValueError, match="^budget must be a nonnegative integer$"):
        hasse([], budget=budget)


def test_a_budget_of_zero_is_a_budget():
    # Refused for the count it leaves room for, not for its type.
    with pytest.raises(ResourceBudgetExceeded, match="^1 extremal combs exceed the budget of 0$"):
        _check_comb_budget(1, 1, 1, 1, 0)


def test_a_count_too_long_to_print_is_named_by_its_signature():
    P = FunctionDistribution.point(FiniteFunction(1500, 2, (0, 1) * 750))
    message = r"1500\^1500 \* 2\^2 extremal combs exceed the budget of 1000000$"
    with pytest.raises(ResourceBudgetExceeded, match=message):
        enumerate_extremal_combs(1500, 2, 1500, 2)
    with pytest.raises(ResourceBudgetExceeded, match=message):
        downward_closure_vertices(P)
    with pytest.raises(ResourceBudgetExceeded, match=message):
        hasse([("a", P), ("b", P)])


def test_a_huge_signature_is_refused_before_its_count_is_formed():
    P = FunctionDistribution.point(FiniteFunction(1, 10**7, (0,)))
    message = r"1\^1 \* 10000000\^10000000 extremal combs exceed the budget of 1000000$"
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetExceeded, match=message):
        downward_closure_vertices(P)
    assert time.perf_counter() - start < 2


def test_a_count_just_under_a_long_budget_passes():
    # 2^1328 < 9 * 10^399 < 10^400 < 2^1329: the three counts that pass have
    # as many bits as the budget.
    budget = 10**400
    assert _check_comb_budget(2, 1, 1328, 1, budget) is None
    assert _check_comb_budget(10, 1, 399, 9, budget) is None
    assert _check_comb_budget(10, 1, 400, 1, budget) is None
    with pytest.raises(ResourceBudgetExceeded, match=r"^2\^1329 \* 1\^1 extremal"):
        _check_comb_budget(2, 1, 1329, 1, budget)
    with pytest.raises(ResourceBudgetExceeded, match=r"^10\^401 \* 1\^1 extremal"):
        _check_comb_budget(10, 1, 401, 1, budget)


def test_identity_comb_fixes_everything():
    comb = ExtremalComb(pre=IDENT, post=IDENT)
    assert apply_extremal(comb, BUILTIN["bit4"]) == BUILTIN["bit4"]


def test_reset_post_collapses_to_a_point():
    comb = ExtremalComb(pre=FLIP, post=RESET1)
    assert apply_extremal(comb, COIN) == FunctionDistribution.point(RESET1)


def test_flip_pre_swaps_the_connected_weights():
    comb = ExtremalComb(pre=FLIP, post=IDENT)
    assert apply_extremal(comb, BUILTIN["bit4"]) == bits(F(1, 3), 0, F(2, 3), 0)


def test_apply_extremal_rejects_incompatible_sizes():
    wide = FiniteFunction.identity(3)
    for comb in (ExtremalComb(pre=wide, post=IDENT), ExtremalComb(pre=IDENT, post=wide)):
        with pytest.raises(SizeMismatch):
            apply_extremal(comb, COIN)
    # A pre misfit names the pre's codomain and P's domain, a post misfit
    # P's codomain and the post's domain, on a mixture of several combs too.
    for mixture, text in (
        (CombMixture.point(ExtremalComb(pre=wide, post=IDENT)), "codomain 3 into domain 2"),
        (
            CombMixture({ExtremalComb(IDENT, wide): F(1, 2), ExtremalComb(FLIP, wide): F(1, 2)}),
            "codomain 2 into domain 3",
        ),
    ):
        with pytest.raises(SizeMismatch, match=f"^cannot chain {text}$"):
            apply_mixture(mixture, COIN)


def test_worked_mixture_reaches_bit5():
    mixture = CombMixture(
        {
            ExtremalComb(IDENT, IDENT): F(1, 2),
            ExtremalComb(FLIP, FLIP): F(1, 2),
        }
    )
    assert apply_mixture(mixture, BUILTIN["bit4"]) == BUILTIN["bit5"]


def test_worked_mixture_reaches_bit8():
    mixture = CombMixture(
        {
            ExtremalComb(IDENT, IDENT): F(3, 4),
            ExtremalComb(IDENT, RESET1): F(1, 4),
        }
    )
    assert apply_mixture(mixture, BUILTIN["bit7"]) == BUILTIN["bit8"]


def test_mixture_repr_lists_its_combs_in_order():
    mixture = CombMixture(
        {ExtremalComb(FLIP, IDENT): F(1, 3), ExtremalComb(IDENT, RESET1): F(2, 3)}
    )
    assert repr(mixture) == "CombMixture({((0, 1), (1, 1)): 2/3, ((1, 0), (0, 1)): 1/3})"


# Mixtures of combs add up integer numerators, and composition and the
# section leave the adding to the distribution type. The table-level oracles
# add up `Fraction`s on their own, so these compare the two on inputs where
# several supported functions land on one table.

FOLD_SIGNATURES = [(2, 2), (2, 3), (3, 2), (3, 3)]


def assert_no_zero_weight(P: FunctionDistribution) -> None:
    assert all(w > 0 for _, w in P.items())


@st.composite
def stick_weights(draw, parts: int) -> list[Fraction]:
    """parts positive weights summing to 1, each cut off the rest by its own denominator."""
    rest, weights = F(1), []
    for _ in range(parts - 1):
        den = draw(st.integers(2, 7))
        weights.append(rest * F(draw(st.integers(1, den - 1)), den))
        rest -= weights[-1]
    return weights + [rest]


@pytest.mark.parametrize("dom,cod", FOLD_SIGNATURES)
def test_pushforwards_match_the_table_oracles(dom, cod):
    # Comb weights have unlike denominators, and P's weights their own.
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def check(data):
        P = data.draw(distributions(dom, cod, max_support=5))
        tgt_dom, tgt_cod = data.draw(st.sampled_from(FOLD_SIGNATURES))
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(oracles.all_tables(tgt_dom, dom)),
                    st.sampled_from(oracles.all_tables(cod, tgt_cod)),
                ),
                min_size=1,
                max_size=3,
            )
        )
        # A constant post sends the whole support of P to one table.
        pairs.append((pairs[0][0], (0,) * cod))
        weights = data.draw(stick_weights(len(pairs)))
        parts = []
        support = []
        for (pre, post), w in zip(pairs, weights):
            comb = ExtremalComb(
                FiniteFunction(tgt_dom, dom, pre), FiniteFunction(cod, tgt_cod, post)
            )
            image = apply_extremal(comb, P)
            expected = oracles.pushforward(as_dict(P), pre, post)
            assert_no_zero_weight(image)
            assert as_dict(image) == expected
            parts.append((w, expected))
            support.append((comb, w))
        mixed = apply_mixture(CombMixture(support), P)
        assert_no_zero_weight(mixed)
        assert as_dict(mixed) == oracles.mix(parts)

    check()


@pytest.mark.parametrize("dom,cod", FOLD_SIGNATURES)
def test_composition_and_section_match_the_table_oracles(dom, cod):
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def check(data):
        inner = data.draw(distributions(dom, cod, max_support=5))
        outer = data.draw(distributions(cod, data.draw(st.integers(1, 3)), max_support=5))
        composed = compose_distributions(outer, inner)
        assert_no_zero_weight(composed)
        assert as_dict(composed) == oracles.mix(
            [
                (wf * wg, {oracles.compose(f.outputs, g.outputs): F(1)})
                for f, wf in outer.items()
                for g, wg in inner.items()
            ]
        )
        rows = oracles.channel(as_dict(inner), dom, cod)
        section = canonical_preimage(StochasticMap(dom, cod, rows))
        assert_no_zero_weight(section)
        assert as_dict(section) == oracles.product_preimage(rows)

    check()


def test_coin_converts_to_shared_resets():
    verdict = know_convertible(COIN, RESETS)
    assert verdict.convertible
    assert apply_mixture(verdict.certificate, COIN) == RESETS


def test_coin_and_stuck_bit_are_incomparable():
    assert not know_convertible(COIN, STUCK)
    assert not know_convertible(STUCK, COIN)


def test_self_conversion_uses_the_identity_comb():
    verdict = know_convertible(BUILTIN["bit7"], BUILTIN["bit7"])
    assert verdict.convertible
    assert verdict.certificate == CombMixture.point(ExtremalComb(IDENT, IDENT))


@pytest.mark.parametrize(
    "src, dst, combs",
    [("bit4", "bit4", 1), ("bit1", "bit2", 1), ("bit7", "bit8", 2)],
    ids=["identity", "single-comb", "lp"],
)
def test_every_positive_route_is_rechecked_once(monkeypatch, src, dst, combs):
    calls = []

    def counted(m, P):
        calls.append((m, P))
        return apply_mixture(m, P)

    monkeypatch.setattr(rtknowcaus, "apply_mixture", counted)
    verdict = know_convertible(BUILTIN[src], BUILTIN[dst])
    assert verdict.convertible
    assert len(verdict.certificate.items()) == combs
    assert calls == [(verdict.certificate, BUILTIN[src])]


def test_a_single_comb_that_misses_the_target_is_refused(monkeypatch):
    # Every image key is paired with a constant post, whose pushforward of
    # bit1 is a point, so the key that matches bit2 carries a wrong comb.
    distinct_images = rtknowcaus._distinct_images

    def constant_posts(P, tgt_domain, tgt_codomain, budget, axis=None):
        den, images = distinct_images(P, tgt_domain, tgt_codomain, budget, axis)
        return den, ((key, pre, (0,) * P.codomain_size) for key, pre, _ in images)

    monkeypatch.setattr(rtknowcaus, "_distinct_images", constant_posts)
    with pytest.raises(AssertionError, match="certificate failed to reproduce the target"):
        know_convertible(BUILTIN["bit1"], BUILTIN["bit2"])


def test_certificates_recombine_exactly():
    rng = random.Random(7)
    hits = 0
    for _ in range(60):
        P = random_bit_distribution(rng, denominator=8)
        Q = random_bit_distribution(rng, denominator=8)
        verdict = know_convertible(P, Q)
        if verdict.convertible:
            hits += 1
            assert apply_mixture(verdict.certificate, P) == Q
        else:
            assert verdict.certificate is None
    assert hits > 0


def test_the_kernel_walks_one_pre_per_class_of_letters(monkeypatch):
    # Letters 0, 2 and 3 agree on both support tables, so pres into {0, 1, 4}
    # give every image: 3**2 of the 5**2 pres, each read through one getter
    # for the pre and one per support table.
    P = FunctionDistribution(
        5,
        2,
        {FiniteFunction(5, 2, (0, 1, 0, 0, 1)): F(1, 3), FiniteFunction(5, 2, (1, 1, 1, 1, 0)): F(2, 3)},
    )
    getter = rtknowcaus._getter
    calls = []
    monkeypatch.setattr(rtknowcaus, "_getter", lambda at: calls.append(at) or getter(at))
    den, images = _distinct_images(P, 2, 2, DEFAULT_COMB_BUDGET)
    images = list(images)
    assert len(calls) == 3**2 * (1 + 2)
    assert [(_image(2, 2, den, key), pre, post) for key, pre, post in images] == [
        (image, comb.pre.outputs, comb.post.outputs)
        for image, comb in oracles.comb_by_comb_images(P, 2, 2)
    ]
    # The kept keys share one object per table.
    tables: dict = {}
    assert all(tables.setdefault(t, t) is t for key, _, _ in images for t, _ in key)


def test_closure_of_a_reset_point():
    vertices = downward_closure_vertices(FunctionDistribution.point(RESET0))
    assert sorted(vertices, key=support_key) == sorted(
        [FunctionDistribution.point(RESET0), FunctionDistribution.point(RESET1)],
        key=support_key,
    )


def test_closure_vertices_of_the_centered_resource():
    P = bit_resource(F(1, 2), F(1, 2), F(1, 2))
    vertices = downward_closure_vertices(P)
    expected = [
        bits(F(1, 8), F(3, 8), F(1, 8), F(3, 8)),
        FunctionDistribution.point(RESET0),
        FunctionDistribution.point(RESET1),
        bits(F(3, 8), F(1, 8), F(1, 8), F(3, 8)),
        bits(F(3, 8), F(1, 8), F(3, 8), F(1, 8)),
        bits(F(1, 8), F(3, 8), F(3, 8), F(1, 8)),
    ]
    assert sorted(vertices, key=support_key) == sorted(
        expected, key=support_key
    )


def test_closure_vertices_of_bit4():
    vertices = downward_closure_vertices(BUILTIN["bit4"])
    expected = [
        BUILTIN["bit4"],
        FunctionDistribution.point(RESET0),
        FunctionDistribution.point(RESET1),
        bits(F(1, 3), 0, F(2, 3), 0),
        bits(F(1, 3), 0, 0, F(2, 3)),
        bits(0, F(1, 3), 0, F(2, 3)),
    ]
    assert sorted(vertices, key=support_key) == sorted(
        expected, key=support_key
    )


@settings(max_examples=25, deadline=None)
@given(bit_distributions())
def test_closure_vertices_are_reachable(P):
    for vertex in downward_closure_vertices(P):
        assert know_convertible(P, vertex)


@settings(max_examples=40, deadline=None)
@given(bit_distributions())
def test_free_resources_absorb_everything(P):
    assert know_convertible(P, RESETS)
    assert know_convertible(P, FunctionDistribution.point(RESET1))


def test_hasse_of_the_six_named_resources():
    names = ["bit1", "bit2", "bit3", "bit4", "bit5", "bit6"]
    graph = hasse([(n, BUILTIN[n]) for n in names])
    assert graph.classes == tuple((n,) for n in names)
    labeled = {
        (graph.classes[a][0], graph.classes[b][0]) for a, b in graph.edges
    }
    assert labeled == {
        ("bit1", "bit6"),
        ("bit3", "bit1"),
        ("bit4", "bit5"),
        ("bit4", "bit6"),
        ("bit5", "bit2"),
        ("bit6", "bit2"),
    }


def test_hasse_merges_equivalent_points():
    graph = hasse(
        [
            ("ident", FunctionDistribution.point(IDENT)),
            ("flip", FunctionDistribution.point(FLIP)),
        ]
    )
    assert graph.classes == (("ident", "flip"),)
    assert graph.edges == ()


def test_hasse_merges_duplicates():
    graph = hasse([("a", COIN), ("b", COIN), ("down", RESETS)])
    assert graph.classes == (("a", "b"), ("down",))
    assert graph.edges == ((0, 1),)


def test_hasse_of_no_resources_is_empty():
    assert hasse([]) == HasseGraph((), ())


def test_hasse_rejects_mixed_signatures():
    trit = FunctionDistribution.point(FiniteFunction.identity(3))
    with pytest.raises(SizeMismatch):
        hasse([("a", COIN), ("b", trit)])


# Each sign flip relabels a bit resource within its equivalence class.
ALPHA_FLIP = {IDENT: FLIP, FLIP: IDENT, RESET0: RESET0, RESET1: RESET1}
GAMMA_FLIP = {IDENT: IDENT, FLIP: FLIP, RESET0: RESET1, RESET1: RESET0}


@st.composite
def bit_resource_lists(draw) -> list[FunctionDistribution]:
    """1 to 6 bit resources drawn from a small pool, with repeats and twins."""
    # Sizes drawn as integers spread more evenly than list lengths, which
    # hypothesis keeps short.
    pool_size, count = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    pool = draw(
        st.lists(bit_distributions(), min_size=pool_size, max_size=pool_size, unique=True)
    )
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.booleans(), st.booleans()),
            min_size=count,
            max_size=count,
        )
    )
    out = []
    for P, flip_alpha, flip_gamma in picks:
        twin = P
        for flip, relabel in ((flip_alpha, ALPHA_FLIP), (flip_gamma, GAMMA_FLIP)):
            if flip:
                twin = FunctionDistribution(2, 2, {relabel[f]: w for f, w in twin.items()})
        assert canonical_form(twin) == canonical_form(P)
        out.append(twin)
    return out


@settings(max_examples=100, deadline=None)
@given(bit_resource_lists())
def test_hasse_matches_the_monotone_preorder(dists):
    tables = [as_dict(P) for P in dists]
    n = len(dists)

    def reach(i: int, j: int) -> bool:
        return oracles.fast_rule(tables[i], tables[j])

    labels = [f"r{i}" for i in range(n)]
    classes: list[tuple[str, ...]] = []
    for i in range(n):
        members = tuple(labels[j] for j in range(n) if reach(i, j) and reach(j, i))
        if members not in classes:
            classes.append(members)
    reps = [labels.index(members[0]) for members in classes]
    k = len(reps)
    strict = {
        (a, b)
        for a in range(k)
        for b in range(k)
        if reach(reps[a], reps[b]) and not reach(reps[b], reps[a])
    }
    cover = {
        (a, b)
        for a, b in strict
        if not any((a, c) in strict and (c, b) in strict for c in range(k))
    }
    graph = hasse(list(zip(labels, dists)))
    assert graph.classes == tuple(classes)
    assert graph.edges == tuple(sorted(cover))


def full_matrix_hasse(resources) -> HasseGraph:
    """The Hasse graph read off know_convertible on every ordered pair."""
    dists = [dist for _, dist in resources]
    n = len(dists)
    reach = [[know_convertible(a, b).convertible for b in dists] for a in dists]
    first = [next(j for j in range(n) if reach[i][j] and reach[j][i]) for i in range(n)]
    reps = sorted(set(first))
    k = len(reps)
    strict = {(a, b) for a in range(k) for b in range(k) if a != b and reach[reps[a]][reps[b]]}
    edges = tuple(
        sorted(
            (a, b)
            for a, b in strict
            if not any((a, c) in strict and (c, b) in strict for c in range(k))
        )
    )
    classes = tuple(
        tuple(label for (label, _), r in zip(resources, first) if r == rep) for rep in reps
    )
    return HasseGraph(classes, edges)


@st.composite
def labeled_resource_lists(draw):
    """1 to 6 labeled 2->2 or 2->3 resources: labels repeat, and so do distributions."""
    cod = draw(st.sampled_from([2, 3]))
    pool_size, count = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    pool = draw(
        st.lists(distributions(2, cod, max_support=3), min_size=pool_size, max_size=pool_size)
    )
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from(pool)),
            min_size=count,
            max_size=count,
        )
    )
    return picks


@settings(max_examples=60, deadline=None)
@given(labeled_resource_lists())
def test_hasse_matches_the_full_verdict_matrix(resources):
    asked = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rtknowcaus, "know_convertible", asking(asked))
        graph = hasse(resources)
    assert graph == full_matrix_hasse(resources)
    assert all(P != Q for P, Q in asked)


def test_hasse_settles_bit_pairs_by_transitivity(monkeypatch):
    resources = [(n, P) for n, P in BUILTIN.items() if P.domain_size == 2]
    assert len(resources) == 16
    asked = []
    monkeypatch.setattr(rtknowcaus, "know_convertible", asking(asked))
    assert hasse(resources) == full_matrix_hasse(resources)
    assert len(asked) <= 132
    assert len(set(asked)) == len(asked)
    assert all(P != Q for P, Q in asked)


def test_conversion_is_transitive_on_samples():
    rng = random.Random(21)
    checked = 0
    while checked < 10:
        P = random_bit_distribution(rng, denominator=8)
        Q = random_bit_distribution(rng, denominator=8)
        R = random_bit_distribution(rng, denominator=8)
        if know_convertible(P, Q) and know_convertible(Q, R):
            assert know_convertible(P, R)
            checked += 1


def test_closure_drops_images_mixed_from_images_of_their_own_support():
    # 12 of this resource's 46 distinct images are mixtures of other images
    # only when images with exactly their own support take part, so a hull
    # test restricted to strictly smaller supports would call them vertices.
    support = {(1, 1, 0): F(1, 3), (1, 0, 1): F(2, 3)}
    P = FunctionDistribution(3, 2, {FiniteFunction(3, 2, t): w for t, w in support.items()})
    vertices = downward_closure_vertices(P)
    assert len(vertices) == 32
    assert [as_dict(v) for v in vertices] == oracles.full_axis_closure(support, 3, 2)


@pytest.fixture(scope="module")
def trit_mix_vertices():
    return downward_closure_vertices(BUILTIN["trit_mix"])


@pytest.mark.parametrize(
    "pre,post",
    [((1, 2, 0), (0, 1, 2)), ((0, 1, 2), (2, 0, 1)), ((1, 0, 2), (0, 2, 1))],
)
def test_trit_mix_closure_commutes_with_relabelling(trit_mix_vertices, pre, post):
    # The closure decides one candidate per relabelling orbit, so agreeing
    # with a relabelled run no longer checks it on its own; each vertex list
    # is also compared with the per-candidate reference, in order.
    relabel = ExtremalComb(FiniteFunction(3, 3, pre), FiniteFunction(3, 3, post))
    moved = apply_extremal(relabel, BUILTIN["trit_mix"])
    relabelled = downward_closure_vertices(moved)
    assert len(trit_mix_vertices) == 57
    assert trit_mix_vertices == oracles.per_candidate_closure(BUILTIN["trit_mix"])
    assert relabelled == oracles.per_candidate_closure(moved)
    assert set(relabelled) == {apply_extremal(relabel, v) for v in trit_mix_vertices}


def test_closure_refuses_an_image_set_not_closed_under_relabelling(monkeypatch):
    # The image kernel loses the twin of the first key with outputs 0 and 1
    # swapped; relabelling the first key still reaches it, so a verdict lands
    # outside the images.
    distinct_images = rtknowcaus._distinct_images
    dropped = []

    def lose_one_twin(P, tgt_domain, tgt_codomain, budget, axis=None):
        den, images = distinct_images(P, tgt_domain, tgt_codomain, budget, axis)
        images = list(images)
        first = images[0][0]
        twin = tuple(sorted((tuple((1, 0, 2)[y] for y in t), n) for t, n in first))
        dropped.extend(image for image in images if image[0] == twin and twin != first)
        return den, [image for image in images if image not in dropped]

    monkeypatch.setattr(rtknowcaus, "_distinct_images", lose_one_twin)
    with pytest.raises(AssertionError, match="relabelling left the image set"):
        downward_closure_vertices(BUILTIN["trit_mix"])
    assert len(dropped) == 1


# Two closures with a four-letter alphabet. Each vertex list matched
# oracles.full_axis_closure in order, but that reference took 175-225 s per
# resource (Python 3.11, shared 2-vCPU machine), so only the counts are
# frozen. The closure assumes that relabelling permutes the vertices, so
# the relabelled run checks only that assumption; the independent check of
# each vertex list is oracles.per_candidate_closure, in order.
FOUR_LETTER_CLOSURES = [
    pytest.param(
        3, 4, {(0, 1, 2): F(1, 2), (3, 3, 3): F(1, 2)}, 244, (2, 0, 1), (1, 3, 0, 2), id="3to4"
    ),
    pytest.param(
        4, 3, {(0, 1, 2, 2): F(1, 2), (1, 1, 1, 1): F(1, 2)}, 237, (3, 0, 2, 1), (2, 0, 1), id="4to3"
    ),
]


@pytest.mark.parametrize("dom,cod,support,count,pre,post", FOUR_LETTER_CLOSURES)
def test_four_letter_closure_commutes_with_relabelling(dom, cod, support, count, pre, post):
    P = FunctionDistribution(
        dom, cod, {FiniteFunction(dom, cod, t): w for t, w in support.items()}
    )
    relabel = ExtremalComb(FiniteFunction(dom, dom, pre), FiniteFunction(cod, cod, post))
    moved = apply_extremal(relabel, P)
    vertices = downward_closure_vertices(P)
    relabelled = downward_closure_vertices(moved)
    assert len(vertices) == count
    assert vertices == oracles.per_candidate_closure(P)
    assert relabelled == oracles.per_candidate_closure(moved)
    assert set(relabelled) == {apply_extremal(relabel, v) for v in vertices}


@st.composite
def hull_questions(draw, dom: int, cod: int):
    """A source and a target; half the targets are mixed from images of the source."""
    P = draw(distributions(dom, cod, max_support=3))
    if not draw(st.booleans()):
        return P, draw(distributions(dom, cod, max_support=3))
    pairs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(oracles.all_tables(dom, dom)),
                st.sampled_from(oracles.all_tables(cod, cod)),
                st.integers(1, 6),
            ),
            min_size=1,
            max_size=3,
        )
    )
    total = sum(w for _, _, w in pairs)
    mixed = oracles.mix(
        [(F(w, total), oracles.pushforward(as_dict(P), pre, post)) for pre, post, w in pairs]
    )
    return P, FunctionDistribution(
        dom, cod, {FiniteFunction(dom, cod, t): w for t, w in mixed.items()}
    )


@pytest.mark.parametrize(
    "dom,cod,examples", [(2, 2, 25), (2, 3, 10), (3, 2, 10), (3, 3, 3)]
)
def test_verdicts_match_the_full_axis_reference(dom, cod, examples):
    @settings(max_examples=examples, deadline=None)
    @given(hull_questions(dom, cod))
    def check(question):
        P, Q = question
        for src, dst in ((P, Q), (Q, P)):
            verdict = know_convertible(src, dst)
            assert verdict.convertible == oracles.full_axis_convertible(
                as_dict(src), as_dict(dst), dom, cod
            )

    check()


def assert_integer_rows_give_the_same_weights(target_key, point_keys, den):
    """The hull LP on raw numerators against the same LP with rows over den."""
    points = [[dict(key).get(t, 0) for t, _ in target_key] for key in point_keys]
    target = [n for _, n in target_key]
    assert convex_weights(points, target) == convex_weights(
        [[F(v, den) for v in point] for point in points], [F(n, den) for n in target]
    )


@pytest.mark.parametrize(
    "dom,cod,examples", [(2, 2, 25), (2, 3, 10), (3, 2, 10), (3, 3, 3)]
)
def test_hull_lps_pivot_alike_on_numerators_and_on_fractions(dom, cod, examples):
    # Every point and the target have numerators summing to den, so scaling
    # the coordinate rows by 1/den changes no pivot. Targets mixed from
    # images lie on den's grid; the reverse questions and the free targets
    # mostly do not.
    @settings(max_examples=examples, deadline=None)
    @given(hull_questions(dom, cod))
    def check(question):
        for src, dst in (question, question[::-1]):
            den, images = _distinct_images(src, dom, cod, DEFAULT_COMB_BUDGET)
            keys = [key for key, _, _ in images]
            target = tuple((f.outputs, w * den) for f, w in dst.items())
            axis = {t for t, _ in target}
            inside = [key for key in keys if axis.issuperset(t for t, _ in key)]
            assert_integer_rows_give_the_same_weights(target, inside, den)
            for key in keys:
                support = {t for t, _ in key}
                others = [
                    other
                    for other in keys
                    if other != key and support.issuperset(t for t, _ in other)
                ]
                assert_integer_rows_give_the_same_weights(key, others, den)

    check()


@st.composite
def hull_keys(draw):
    """A target key and distinct point keys supported inside it, over one den.

    Each key gives den units to its tables. Half the targets are mixed from
    the points, so their numerators may be fractions; a mixed target's
    support can be smaller than the tables drawn, and points outside it are
    dropped, as callers do.
    """
    den = draw(st.integers(1, 6))
    tables = [(t,) for t in range(draw(st.integers(1, 4)))]
    keys = st.lists(st.sampled_from(tables), min_size=den, max_size=den).map(
        lambda picks: tuple(sorted(Counter(picks).items()))
    )
    points = draw(st.lists(keys, max_size=6, unique=True))
    if points and draw(st.booleans()):
        parts = draw(
            st.lists(st.tuples(st.sampled_from(points), st.integers(1, 4)), min_size=1, max_size=3)
        )
        total = sum(w for _, w in parts)
        mixed: dict[tuple, Fraction] = {}
        for key, w in parts:
            for t, n in key:
                mixed[t] = mixed.get(t, F(0)) + F(w * n, total)
        target = tuple(sorted(mixed.items()))
    else:
        target = draw(keys)
    support = {t for t, _ in target}
    return target, [p for p in points if support.issuperset(t for t, _ in p)]


# An empty point list; a target above every point on table (0,); a target
# below every point on table (0,) and inside the points' range elsewhere;
# and a mixed target that meets every point on table (0,), which a
# refutation on the bounds themselves would wrongly refuse.
@example(((((0,), 1),), []))
@example(((((0,), 2), ((1,), 1)), [(((0,), 1), ((1,), 2)), (((1,), 3),)]))
@example((
    (((0,), 1), ((1,), 1), ((2,), 1)),
    [(((0,), 2), ((1,), 1)), (((0,), 2), ((2,), 1))],
))
@example((
    (((0,), F(1)), ((1,), F(1, 2)), ((2,), F(1, 2))),
    [(((0,), 1), ((1,), 1)), (((0,), 1), ((2,), 1))],
))
@settings(max_examples=300, deadline=None)
@given(hull_keys())
def test_hull_bounds_refute_only_what_the_lp_refutes(question):
    target, points = question
    den = sum(n for _, n in target)
    weights = oracles.fraction_tableau_weights(
        [[F(dict(p).get(t, 0), den) for t, _ in target] for p in points],
        [F(n, den) for _, n in target],
    )
    expected = None if weights is None else {p: w for p, w in zip(points, weights) if w > 0}
    assert _hull_weights(target, points) == expected


@pytest.mark.parametrize("dom,cod", [(2, 3), (3, 2)])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_closure_matches_the_full_axis_reference(dom, cod, data):
    P = data.draw(distributions(dom, cod, max_support=3))
    vertices = downward_closure_vertices(P)
    assert [as_dict(v) for v in vertices] == oracles.full_axis_closure(as_dict(P), dom, cod)


@pytest.mark.parametrize(
    "dom,cod,width,examples",
    [
        *(
            pytest.param(dom, cod, 3, examples, id=f"{dom}-{cod}-{examples}")
            for dom, cod, examples in [
                (2, 2, 20), (2, 3, 10), (3, 2, 10), (3, 3, 5), (1, 3, 10), (3, 1, 1)
            ]
        ),
        pytest.param(2, 2, 4, 10, id="wide-2-2-10"),
        pytest.param(3, 2, 8, 5, id="wide-3-2-5"),
        pytest.param(2, 3, 9, 5, id="wide-2-3-5"),
    ],
)
def test_closure_matches_the_per_candidate_reference(dom, cod, width, examples):
    # One LP per relabelling orbit against one LP per candidate: the same
    # vertices, element by element and in order. A candidate's points come
    # from the subsets of its support when it has fewer of them than there
    # are support sets, and from a scan of every support set otherwise; the
    # wide supports (up to every table) take the scan for their widest
    # candidates, the narrow ones mostly the subsets.
    @settings(max_examples=examples, deadline=None)
    @given(distributions(dom, cod, max_support=width))
    def check(P):
        assert downward_closure_vertices(P) == oracles.per_candidate_closure(P)

    check()


def test_random_four_letter_pair_decides_within_a_minute():
    rng = random.Random(4)
    pool = list(all_functions(4, 4))
    P, Q = (
        FunctionDistribution(4, 4, zip(rng.sample(pool, 4), (F(k, 10) for k in range(1, 5))))
        for _ in range(2)
    )
    start = time.perf_counter()
    verdict = know_convertible(P, Q)
    assert time.perf_counter() - start < 60.0
    assert not verdict.convertible


SIGNATURES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]
# A one-position target composes through one-index reads, which must still
# give 1-tuples.
TARGETS = SIGNATURES + [(1, 2), (1, 3)]


def assert_kernel_matches_the_comb_by_comb_reference(P, tgt):
    den, images = _distinct_images(P, *tgt, DEFAULT_COMB_BUDGET)
    got = [(key, _image(*tgt, den, key), pre, post) for key, pre, post in images]
    expected = [
        (
            tuple((f.outputs, w * den) for f, w in image.items()),
            image,
            comb.pre.outputs,
            comb.post.outputs,
        )
        for image, comb in oracles.comb_by_comb_images(P, *tgt)
    ]
    assert got == expected


@pytest.mark.parametrize("tgt", TARGETS, ids=lambda s: f"to{s[0]}{s[1]}")
@pytest.mark.parametrize("src", SIGNATURES, ids=lambda s: f"from{s[0]}{s[1]}")
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_image_kernel_matches_the_comb_by_comb_reference(src, tgt, data):
    P = data.draw(distributions(*src, max_support=3))
    assert_kernel_matches_the_comb_by_comb_reference(P, tgt)


def test_image_kernel_walks_a_wide_source_to_one_letter():
    # 300 source letters: a pre coded one letter to a byte could not name them.
    P = tables(300, 2, {(0, 1) * 150: "1/2", (0,) * 300: "1/2"})
    assert_kernel_matches_the_comb_by_comb_reference(P, (1, 2))


def assert_verdict_matches_the_reference(P, Q):
    verdict = know_convertible(P, Q)
    assert verdict.convertible == oracles.full_axis_convertible(
        as_dict(P), as_dict(Q), Q.domain_size, Q.codomain_size
    )
    if verdict.convertible:
        assert apply_mixture(verdict.certificate, P) == Q


def tables(dom: int, cod: int, weights: dict) -> FunctionDistribution:
    return FunctionDistribution(
        dom, cod, {FiniteFunction(dom, cod, t): F(w) for t, w in weights.items()}
    )


@st.composite
def axis_targets(draw, P: FunctionDistribution, dom: int, cod: int) -> FunctionDistribution:
    """A target for P: free, mixed from two images, or an image off P's grid."""
    kind = draw(st.sampled_from(["free", "mixed", "shifted"]))
    if kind == "free":
        return draw(distributions(dom, cod, max_support=3))
    pres = st.sampled_from(oracles.all_tables(dom, P.domain_size))
    posts = st.sampled_from(oracles.all_tables(P.codomain_size, cod))
    near, far = (
        oracles.pushforward(as_dict(P), draw(pres), draw(posts)) for _ in range(2)
    )
    if kind == "mixed":
        w = F(draw(st.integers(1, 5)), 6)
        return tables(dom, cod, oracles.mix([(w, near), (1 - w, far)]))
    if len(near) > 1:
        # Half a grid step moves from the heaviest table to the lightest.
        shift = F(1, 2 * lcm(*(w.denominator for _, w in P.items())))
        ranked = sorted(near, key=near.get)
        near[ranked[0]] += shift
        near[ranked[-1]] -= shift
    return tables(dom, cod, near)


def filtered_reference(P, dom: int, cod: int, axis: set, den: int) -> list:
    """The reference's (key, pre, post) for each image supported inside axis."""
    return [
        (
            tuple((f.outputs, w * den) for f, w in image.items()),
            comb.pre.outputs,
            comb.post.outputs,
        )
        for image, comb in oracles.comb_by_comb_images(P, dom, cod)
        if axis.issuperset(f.outputs for f in image.functions())
    ]


@pytest.mark.parametrize("tgt", TARGETS, ids=lambda s: f"to{s[0]}{s[1]}")
@pytest.mark.parametrize("src", SIGNATURES, ids=lambda s: f"from{s[0]}{s[1]}")
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_axis_search_matches_the_filtered_reference(src, tgt, data):
    P = data.draw(distributions(*src, max_support=3))
    Q = data.draw(axis_targets(P, *tgt))
    axis = {f.outputs for f in Q.functions()}
    den, images = _distinct_images(P, *tgt, DEFAULT_COMB_BUDGET, axis)
    assert list(images) == filtered_reference(P, *tgt, axis, den)


@pytest.mark.parametrize(
    "P,tgt,axis",
    [
        (FunctionDistribution.point(RESET0), (2, 2), {(0, 1), (1, 0)}),
        (BUILTIN["bit1"], (3, 3), {(0, 1, 2), (2, 1, 0)}),
        (tables(3, 3, {(0, 1, 1): "1/2", (2, 2, 2): "1/2"}), (3, 3), {(0, 1, 2)}),
        (tables(2, 4, {(0, 1): "1/3", (3, 3): "2/3"}), (2, 4), {(0, 1), (2, 3)}),
    ],
)
def test_an_axis_no_image_reaches_gives_an_empty_walk(P, tgt, axis):
    # Images are never wider than P's widest table, and an image of a source
    # with a constant table keeps a constant table, so these axes are missed.
    den, images = _distinct_images(P, *tgt, DEFAULT_COMB_BUDGET, axis)
    assert filtered_reference(P, *tgt, axis, den) == []
    assert list(images) == []


@pytest.mark.parametrize(
    "halves,thirds",
    [
        (COIN, bits(0, 0, F(1, 3), F(2, 3))),
        (COIN, bits(F(1, 3), F(2, 3), 0, 0)),
        (STUCK, bits(F(1, 3), 0, F(1, 3), F(1, 3))),
        (
            tables(2, 3, {(0, 1): "1/2", (2, 2): "1/2"}),
            tables(2, 3, {(0, 0): "1/3", (1, 1): "1/3", (2, 2): "1/3"}),
        ),
        (
            tables(3, 2, {(0, 1, 1): "1/2", (1, 0, 0): "1/4", (0, 0, 0): "1/4"}),
            tables(3, 2, {(0, 1, 1): "1/3", (1, 0, 0): "1/3", (0, 0, 0): "1/3"}),
        ),
    ],
)
def test_target_weights_off_the_source_denominator(halves, thirds):
    # The target's weights are no multiples of 1/den of the source, so its
    # integer-coded key has fractional numerators and equals no image key.
    assert_verdict_matches_the_reference(halves, thirds)
    assert_verdict_matches_the_reference(thirds, halves)


@pytest.mark.parametrize(
    "P,pre,post,shift",
    [
        (BUILTIN["bit7"], (0, 1), (0, 1), F(1, 36)),
        (BUILTIN["bit7"], (1, 0), (0, 1), F(1, 18)),
        (BUILTIN["mono_gamma_a"], (0, 1), (1, 0), F(1, 100)),
        (BUILTIN["trit_mix"], (0, 1, 2), (0, 1, 2), F(1, 12)),
        (BUILTIN["trit_mix"], (2, 0, 1), (1, 2, 2), F(1, 9)),
        (
            tables(2, 3, {(0, 1): "1/6", (2, 0): "1/3", (1, 1): "1/2"}),
            (1, 0),
            (0, 1, 2),
            F(1, 6),
        ),
    ],
)
def test_target_off_an_image_in_one_weight(P, pre, post, shift):
    # The target has the tables of an image and all its numerators but two:
    # shift moves from the heaviest table to the lightest.
    d, c = P.domain_size, P.codomain_size
    image = apply_extremal(
        ExtremalComb(FiniteFunction(d, d, pre), FiniteFunction(c, c, post)), P
    )
    assert len(image.items()) > 1
    ranked = sorted(image.items(), key=lambda item: item[1])
    (light, _), (heavy, _) = ranked[0], ranked[-1]
    weights = image.support
    weights[light] += shift
    weights[heavy] -= shift
    Q = FunctionDistribution(d, c, weights)
    assert Q != image and Q.functions() == image.functions()
    assert_verdict_matches_the_reference(P, Q)
    assert_verdict_matches_the_reference(Q, P)


def test_four_letter_mixture_of_two_images_is_certified_within_a_minute():
    # The full-axis reference cannot finish on 4->4 (tens of thousands of
    # images), so the positive verdict is checked by recombining the
    # certificate with the reference's own table arithmetic.
    rng = random.Random(8)
    pool = list(all_functions(4, 4))
    P = FunctionDistribution(4, 4, zip(rng.sample(pool, 4), (F(k, 10) for k in range(1, 5))))
    near, far = (
        oracles.pushforward(
            as_dict(P),
            random_function(rng, 4, 4).outputs,
            random_function(rng, 4, 4).outputs,
        )
        for _ in range(2)
    )
    mixed = oracles.mix([(F(1, 3), near), (F(2, 3), far)])
    Q = tables(4, 4, mixed)
    start = time.perf_counter()
    verdict = know_convertible(P, Q)
    assert time.perf_counter() - start < 60.0
    assert verdict.convertible
    assert len(verdict.certificate.items()) > 1
    parts = [
        (w, oracles.pushforward(as_dict(P), comb.pre.outputs, comb.post.outputs))
        for comb, w in verdict.certificate.items()
    ]
    assert oracles.mix(parts) == mixed


def four_function_resource(rng: random.Random, dom: int, cod: int) -> FunctionDistribution:
    pool = list(all_functions(dom, cod))
    return FunctionDistribution(
        dom, cod, zip(rng.sample(pool, 4), (F(k, 10) for k in range(1, 5)))
    )


@pytest.mark.parametrize("dom,cod", [(5, 4), (4, 5)], ids=["5to4", "4to5"])
def test_five_letter_pairs_are_refused_within_five_seconds(dom, cod):
    # Each direction walks 800,000 combs without the target's support to
    # narrow the posts (10-12 s on Python 3.11, shared 2-vCPU machine).
    rng = random.Random(5)
    P, Q = (four_function_resource(rng, dom, cod) for _ in range(2))
    for src, dst in ((P, Q), (Q, P)):
        start = time.perf_counter()
        verdict = know_convertible(src, dst)
        assert time.perf_counter() - start < 5.0
        assert not verdict.convertible


def test_five_to_four_mixture_of_two_images_is_certified_within_five_seconds():
    rng = random.Random(8)
    P = four_function_resource(rng, 5, 4)
    near, far = (
        oracles.pushforward(
            as_dict(P),
            random_function(rng, 5, 5).outputs,
            random_function(rng, 4, 4).outputs,
        )
        for _ in range(2)
    )
    mixed = oracles.mix([(F(1, 3), near), (F(2, 3), far)])
    Q = tables(5, 4, mixed)
    start = time.perf_counter()
    verdict = know_convertible(P, Q)
    assert time.perf_counter() - start < 5.0
    assert verdict.convertible
    assert len(verdict.certificate.items()) > 1
    parts = [
        (w, oracles.pushforward(as_dict(P), comb.pre.outputs, comb.post.outputs))
        for comb, w in verdict.certificate.items()
    ]
    assert oracles.mix(parts) == mixed
