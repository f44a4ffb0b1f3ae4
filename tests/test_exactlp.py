"""Geometric sanity checks for the exact feasibility solver."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from causalres.exactlp import convex_weights

F = Fraction

SQUARE = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]


def recombine(points, weights):
    dim = len(points[0])
    return tuple(
        sum((w * p[i] for w, p in zip(weights, points)), F(0)) for i in range(dim)
    )


def check_membership(points, target):
    weights = convex_weights(points, target)
    assert weights is not None
    assert all(w >= 0 for w in weights)
    assert sum(weights) == 1
    assert recombine(points, weights) == tuple(target)


def test_midpoint_of_a_segment():
    check_membership([(F(0),), (F(1),)], (F(1, 2),))


def test_point_beyond_a_segment():
    assert convex_weights([(F(0),), (F(1),)], (F(3, 2),)) is None


def test_square_contains_its_center():
    check_membership(SQUARE, (F(1, 2), F(1, 2)))


def test_square_contains_its_own_corner():
    check_membership(SQUARE, (F(1), F(1)))


def test_square_contains_an_edge_point():
    check_membership(SQUARE, (F(1), F(1, 3)))


def test_point_just_outside_an_edge():
    assert convex_weights(SQUARE, (F(1) + F(1, 1000), F(1, 2))) is None


def test_no_points_hold_no_target():
    assert convex_weights([], [F(1)]) is None
    assert convex_weights([], []) is None


def test_single_point_hull():
    check_membership([(F(2, 7), F(5, 7))], (F(2, 7), F(5, 7)))
    assert convex_weights([(F(2, 7), F(5, 7))], (F(2, 7), F(0))) is None


def test_collinear_points_stay_on_their_line():
    points = [(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]
    check_membership(points, (F(1, 3), F(1, 3)))
    assert convex_weights(points, (F(1, 3), F(1, 2))) is None


def test_redundant_interior_points_are_harmless():
    points = SQUARE + [(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))]
    check_membership(points, (F(9, 10), F(1, 10)))


coords = st.fractions(min_value=-3, max_value=3, max_denominator=16)


@given(
    st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=6),
    st.lists(st.integers(0, 8), min_size=1, max_size=6),
)
def test_explicit_combinations_are_always_feasible(points, raw):
    raw = (raw * len(points))[: len(points)]
    if sum(raw) == 0:
        raw = [1] * len(points)
    total = sum(raw)
    weights = [F(r, total) for r in raw]
    target = recombine(points, weights)
    check_membership(points, target)


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=5))
def test_points_beyond_the_coordinate_range_are_rejected(points):
    assert convex_weights(points, (F(4), F(0))) is None


def test_points_must_have_the_dimension_of_the_target():
    with pytest.raises(ValueError, match="dimension of the target"):
        convex_weights([(F(1), F(0)), (F(0),)], (F(1), F(0)))


def test_floats_are_refused():
    with pytest.raises(TypeError):
        convex_weights([[1], [0]], [0.1])
    with pytest.raises(TypeError):
        convex_weights([[F(1)], [0.5]], [F(1, 2)])


@pytest.mark.parametrize(
    "points,target",
    [
        ([[0, 0], [4, 0], [0, 4], [4, 4]], [1, 3]),
        ([[0, 0], [4, 0], [0, 4]], [3, 3]),
        ([[3, 1], [1, 3], [2, 2]], [2, 2]),
    ],
)
def test_int_fraction_and_string_entries_give_the_same_weights(points, target):
    # Ints pass through uncoerced; the others go through `core.exact`.
    weights = convex_weights(points, target)
    for kind in (F, str):
        assert convex_weights(
            [[kind(v) for v in p] for p in points], [kind(v) for v in target]
        ) == weights
    mixed = [
        [v if (i + j) % 2 else str(v) for j, v in enumerate(p)] for i, p in enumerate(points)
    ]
    assert convex_weights(mixed, [F(v) for v in target]) == weights
    with pytest.raises(TypeError):
        convex_weights(points, [float(target[0])] + target[1:])
    with pytest.raises(TypeError):
        convex_weights([[float(points[0][0])] + points[0][1:]] + points[1:], target)


@st.composite
def hull_questions(draw):
    """Points and a target, built to meet the solver's harder paths.

    Each coordinate row has its own denominator, times 1, 2 or 3 per entry,
    so rows scale to integers by different factors; entries may be negative
    (so rows get flipped), points may repeat, and the target is free, a
    point itself, a mixture of two points (often on an edge or facet, where
    the ratio test meets ties) or a mixture of all of them.
    """
    dim = draw(st.integers(1, 5))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6]), min_size=dim, max_size=dim))
    entry = [
        st.builds(F, st.integers(-4, 4), st.sampled_from([den, 2 * den, 3 * den]))
        for den in dens
    ]
    points = draw(st.lists(st.tuples(*entry), min_size=1, max_size=9))
    for point in draw(st.lists(st.sampled_from(points), max_size=3)):
        points.insert(draw(st.integers(0, len(points))), point)
    kind = draw(st.sampled_from(["free", "vertex", "pair", "mixed"]))
    if kind == "free":
        target = draw(
            st.tuples(*[st.fractions(-6, 6, max_denominator=10) for _ in range(dim)])
        )
        return points, target
    if kind == "vertex":
        return points, draw(st.sampled_from(points))
    chosen = points if kind == "mixed" else draw(
        st.lists(st.sampled_from(points), min_size=2, max_size=2)
    )
    raw = draw(st.lists(st.integers(0, 4), min_size=len(chosen), max_size=len(chosen)))
    raw = raw if sum(raw) else [1] * len(chosen)
    weights = [F(r, sum(raw)) for r in raw]
    return points, recombine(chosen, weights)


# Each fixed example takes another pivot path, and returns other weights,
# when one choice departs from the reference: coordinate rows and the cost
# row weighted unlike the unscaled system (the first two examples catch a
# normalization row left at 1 while the coordinate rows are scaled by 42),
# ratio ties going to the last row, and ratio ties going to the first row
# instead of the smallest basic index.
@example((
    [(F(-1),), (F(-1, 3),), (F(-1, 2),), (F(2),)],
    (F(11, 42),),
))
@example((
    [
        (F(1, 4), F(-1, 4), F(-1)),
        (F(-2), F(0), F(-4, 3)),
        (F(0), F(1, 6), F(-1, 12)),
        (F(2, 3), F(1), F(1)),
        (F(-1), F(1, 6), F(1, 3)),
    ],
    (F(-11, 42), F(1, 6), F(-1, 84)),
))
@example((
    [(F(-1), F(-1)), (F(1, 3), F(-2, 3)), (F(1, 6), F(-2, 3)), (F(1), F(0))],
    (F(2, 9), F(-4, 9)),
))
@settings(max_examples=400, deadline=None)
@given(hull_questions())
def test_weights_match_the_fraction_tableau_reference(question):
    points, target = question
    weights = convex_weights(points, target)
    assert weights == oracles.fraction_tableau_weights(points, target)
    if weights is not None:
        assert all(type(w) is Fraction for w in weights)
        assert recombine(points, weights) == tuple(target)


def test_integer_recheck_rejects_a_wrong_weight():
    """A slip in the tableau arithmetic raises instead of returning weights.

    A trace on the solver's frame adds one to the right-hand side of a row
    with a structural basic column as soon as the pivot loop has ended, as
    an inexact division could.
    """
    code = convex_weights.__code__
    corrupted = []

    def on_line(frame, event, arg):
        local = frame.f_locals
        if event == "line" and not corrupted and "enter" in local and local["enter"] is None:
            n = len(local["points"])
            r = next(r for r, b in enumerate(local["basis"]) if b < n)
            local["tableau"][r][n] += 1
            corrupted.append(r)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        with pytest.raises(AssertionError):
            convex_weights(SQUARE, (F(1, 2), F(1, 3)))
    finally:
        sys.settrace(previous)
    assert corrupted
