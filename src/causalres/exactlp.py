"""Exact feasibility solver for convex-combination membership.

A single question is answered here: does a target vector lie in the convex
hull of a finite point set, and if so, with which weights? The solver is a
phase-1 simplex using Bland's smallest-index rule for both the entering and
the leaving choice, which excludes cycling, so termination needs no
perturbation and the yes/no answer is exact even when the target sits on a
facet. There is no phase 2; feasibility is the whole objective.

The equality system is scaled to integers by one factor, the lcm of every
denominator in it, so the cost row is just minus its column sums. The
tableau holds integers over one positive common denominator and pivots
fraction-free (Edmonds 1967, Bareiss 1968): every entry is a minor of the
initial integer matrix, so each division by the previous pivot is exact.
`Fraction` appears only where non-integer inputs are coerced through
`core.exact` and where the weights are returned, and an integer re-check of
the weights against the rows guards the arithmetic in between.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .core import Rational, exact


def convex_weights(
    points: Sequence[Sequence[Rational]], target: Sequence[Rational]
) -> Optional[list[Rational]]:
    """Weights expressing target as a convex combination of points, or None.

    The returned list is a basic feasible solution: nonnegative, summing to
    one, with at most dim+1 nonzero entries. Floats are refused with
    `TypeError`.
    """
    n = len(points)
    d = len(target)
    if any(len(p) != d for p in points):
        raise ValueError("all points must have the dimension of the target")

    # Equality system: one row per coordinate, its point entries then its
    # target entry, and the normalization row, all scaled to integers by one
    # factor, the lcm of every denominator in the system. A row with a
    # negative right-hand side is flipped so the artificial start is feasible.
    # An int entry already has a numerator and a denominator and goes in as
    # it is; any other is coerced through `exact`, which refuses floats.
    rows = [
        [v if type(v) is int else exact(v) for v in [p[i] for p in points] + [target[i]]]
        for i in range(d)
    ]
    scale = lcm(*[v.denominator for row in rows for v in row])
    for r, row in enumerate(rows):
        sign = -1 if row[n] < 0 else 1
        rows[r] = [sign * v.numerator * (scale // v.denominator) for v in row]
    rows.append([scale] * (n + 1))
    m = d + 1

    # Cost row for minimizing the artificial total: minus the column sums of
    # the rows, which is scale times the phase-1 objective. Its last entry
    # holds minus the current objective value. The artificial columns are
    # never read again (only structural columns may enter), so the tableau
    # keeps just the structural and right-hand-side columns.
    cost = [-sum(c) for c in zip(*rows)]
    tableau = rows + [cost]
    basis = [n + r for r in range(m)]

    # The tableau's true entries are its integers over den > 0.
    den = 1
    while True:
        # Bland entering rule.
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break

        # Bland leaving rule: minimum ratio rhs/coef, compared cross-multiplied
        # over positive coefs, ties to the smallest basic index.
        leave = None
        for r in range(m):
            coef = tableau[r][enter]
            if coef > 0:
                rhs = tableau[r][n]
                if leave is None or rhs * best_coef < best_rhs * coef or (
                    rhs * best_coef == best_rhs * coef and basis[r] < basis[leave]
                ):
                    leave, best_rhs, best_coef = r, rhs, coef
        if leave is None:
            raise RuntimeError("phase-1 objective cannot be unbounded")

        # Bareiss step: the pivot row stays, every other row becomes
        # (pivot * row - row[enter] * pivot_row) / den, and den becomes the
        # pivot, which is positive.
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for r in range(m + 1):
            if r != leave:
                factor = tableau[r][enter]
                tableau[r] = [
                    (pivot * v - factor * pv) // den
                    for v, pv in zip(tableau[r], pivot_row)
                ]
        cost = tableau[m]
        basis[leave] = enter
        den = pivot

    if cost[n] != 0:
        return None

    numerators = [0] * n
    for r in range(m):
        if basis[r] < n:
            numerators[basis[r]] = tableau[r][n]
    if (
        min(numerators) < 0
        or sum(numerators) != den
        or any(
            sum(w * v for w, v in zip(numerators, row)) != den * row[n]
            for row in rows
        )
    ):
        raise AssertionError("simplex weights fail the integer re-check")
    return [Fraction(w, den) for w in numerators]
