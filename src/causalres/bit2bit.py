"""Complete characterization of bit-to-bit resources.

A distribution over the four bit functions is pinned down by three numbers:
beta, the weight on the two nonconstant functions; alpha, the bias between
flip and identity inside that weight; gamma, the bias between the two resets
outside it. Alpha only exists when beta is positive and gamma only when beta
is below one. The triple of monotones computed here decides convertibility
without any linear program, which is what `bit_convertible_fast` exploits;
the LP in `rtknowcaus` stays available as the independent general route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import ONE, ZERO, FiniteFunction, FunctionDistribution, Rational, exact
from .errors import SizeMismatch

IDENT = FiniteFunction(2, 2, (0, 1))
FLIP = FiniteFunction(2, 2, (1, 0))
RESET0 = FiniteFunction(2, 2, (0, 0))
RESET1 = FiniteFunction(2, 2, (1, 1))

HALF = Rational(1, 2)


@dataclass(frozen=True)
class BitParams:
    """The (alpha, beta, gamma) coordinates of a bit-to-bit resource.

    beta runs from 0 to 1; alpha runs from -1 (all identity) to +1 (all
    flip) and is None when beta is zero; gamma runs from -1 (all reset-to-0)
    to +1 (all reset-to-1) and is None when beta is one. A point outside
    these ranges is refused by the weight rule of `to_distribution`.
    """

    alpha: Optional[Rational]
    beta: Rational
    gamma: Optional[Rational]

    def __post_init__(self) -> None:
        beta = exact(self.beta)
        alpha = None if self.alpha is None else exact(self.alpha)
        gamma = None if self.gamma is None else exact(self.gamma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        if (alpha is None) != (beta == ZERO):
            raise ValueError("alpha must be present exactly when beta > 0")
        if (gamma is None) != (beta == ONE):
            raise ValueError("gamma must be present exactly when beta < 1")
        # The four weights sum to 1 for any point, and a coordinate outside
        # its interval makes one of them negative, so the weight rule is the
        # range check.
        self.to_distribution()

    def to_distribution(self) -> FunctionDistribution:
        """Invert the parametrization back into four exact weights."""
        a = self.alpha if self.alpha is not None else ZERO
        g = self.gamma if self.gamma is not None else ZERO
        return FunctionDistribution(
            2,
            2,
            {
                IDENT: self.beta * (ONE - a) * HALF,
                FLIP: self.beta * (ONE + a) * HALF,
                RESET0: (ONE - self.beta) * (ONE - g) * HALF,
                RESET1: (ONE - self.beta) * (ONE + g) * HALF,
            },
        )


@dataclass(frozen=True)
class MonotoneTriple:
    """The complete monotone set for bit-to-bit resources.

    m_abs_alpha is None exactly for free resources. m_gamma_beta is the
    certainty of causal connection attainable by postselecting on the
    output; it is 0 for free resources and 1 when beta is 1.
    """

    m_beta: Rational
    m_abs_alpha: Optional[Rational]
    m_gamma_beta: Rational


@dataclass(frozen=True)
class CanonicalForm:
    """(|alpha|, beta, |gamma|); equal forms mean the same equivalence class."""

    abs_alpha: Optional[Rational]
    beta: Rational
    abs_gamma: Optional[Rational]


def _bit_weights(P: FunctionDistribution) -> tuple[Rational, Rational, Rational, Rational]:
    """(w_I, w_F, w_R0, w_R1), or `SizeMismatch` unless P is bit-to-bit."""
    if (P.domain_size, P.codomain_size) != (2, 2):
        raise SizeMismatch(
            f"bit-to-bit operation on a {P.domain_size}->{P.codomain_size} resource"
        )
    return P.weight(IDENT), P.weight(FLIP), P.weight(RESET0), P.weight(RESET1)


def bit_resource(
    alpha: Optional[Rational], beta: Rational, gamma: Optional[Rational]
) -> FunctionDistribution:
    """Build the resource with the given coordinates."""
    return BitParams(alpha=alpha, beta=beta, gamma=gamma).to_distribution()


def parametrize(P: FunctionDistribution) -> BitParams:
    """Read the (alpha, beta, gamma) coordinates off the four weights."""
    w_ident, w_flip, w_reset0, w_reset1 = _bit_weights(P)
    beta = w_ident + w_flip
    alpha = (w_flip - w_ident) / beta if beta > 0 else None
    gamma = (w_reset1 - w_reset0) / (ONE - beta) if beta < 1 else None
    return BitParams(alpha=alpha, beta=beta, gamma=gamma)


def monotone_triple(P: FunctionDistribution) -> MonotoneTriple:
    """Evaluate the three monotones at P from its four weights.

    m_beta = w_I + w_F and |alpha| = |w_F - w_I| / beta. Since
    (1 - beta) - |w_R1 - w_R0| = 2 min(w_R0, w_R1), the paper's
    m_gamma_beta = beta / (1 - |gamma| (1 - beta)) is
    beta / (beta + 2 min(w_R0, w_R1)): the posterior of causal connection
    after the output whose reset weighs less.
    """
    w_ident, w_flip, w_reset0, w_reset1 = _bit_weights(P)
    beta = w_ident + w_flip
    if beta == ZERO:
        return MonotoneTriple(m_beta=ZERO, m_abs_alpha=None, m_gamma_beta=ZERO)
    return MonotoneTriple(
        m_beta=beta,
        m_abs_alpha=abs(w_flip - w_ident) / beta,
        m_gamma_beta=beta / (beta + 2 * min(w_reset0, w_reset1)),
    )


def canonical_form(P: FunctionDistribution) -> CanonicalForm:
    """Forget the signs of alpha and gamma; both are freely flippable.

    Read off the four weights: |alpha| = |w_F - w_I| / beta, beta = w_I + w_F
    and |gamma| = |w_R1 - w_R0| / (1 - beta).
    """
    w_ident, w_flip, w_reset0, w_reset1 = _bit_weights(P)
    beta = w_ident + w_flip
    return CanonicalForm(
        abs_alpha=abs(w_flip - w_ident) / beta if beta > 0 else None,
        beta=beta,
        abs_gamma=abs(w_reset1 - w_reset0) / (ONE - beta) if beta < 1 else None,
    )


def bit_convertible_fast(P: FunctionDistribution, Q: FunctionDistribution) -> bool:
    """Decide convertibility from the monotone triple alone.

    A free target is reachable from anything. A free source reaches only
    free targets. Otherwise all three monotones are defined on both sides
    and must not increase.
    """
    src = monotone_triple(P)
    dst = monotone_triple(Q)
    if dst.m_beta == ZERO:
        return True
    if src.m_beta == ZERO:
        return False
    assert src.m_abs_alpha is not None and dst.m_abs_alpha is not None
    return (
        src.m_beta >= dst.m_beta
        and src.m_abs_alpha >= dst.m_abs_alpha
        and src.m_gamma_beta >= dst.m_gamma_beta
    )


def table1_vertices(P: FunctionDistribution) -> list[FunctionDistribution]:
    """Candidate vertex list of the downward closure of P, deduplicated.

    The rows are P itself, the two resets, and the three sign-flip images
    of P, read off its four weights: negating alpha swaps w_I and w_F,
    negating both alpha and gamma swaps both pairs, and negating gamma
    swaps w_R0 and w_R1. A free resource has no alpha to flip and its
    closure degenerates onto the reset segment, so only the resets remain.
    Coinciding rows are merged; reducing interior points away is the job of
    the general closure routine, not of this list.
    """
    w_ident, w_flip, w_reset0, w_reset1 = _bit_weights(P)
    resets = [FunctionDistribution.point(RESET0), FunctionDistribution.point(RESET1)]
    if w_ident + w_flip == ZERO:
        return resets
    flips = [
        FunctionDistribution(2, 2, {IDENT: i, FLIP: f, RESET0: r0, RESET1: r1})
        for i, f, r0, r1 in (
            (w_flip, w_ident, w_reset0, w_reset1),
            (w_flip, w_ident, w_reset1, w_reset0),
            (w_ident, w_flip, w_reset1, w_reset0),
        )
    ]
    return list(dict.fromkeys([P, *resets, *flips]))


def tetra_coords(P: FunctionDistribution) -> tuple[Rational, Rational, Rational]:
    """Barycentric embedding of P into a fixed regular tetrahedron.

    Four corners of the unit cube make a regular tetrahedron with rational
    coordinates: identity (0, 0, 0), flip (1, 1, 0), reset-to-0 (1, 0, 1)
    and reset-to-1 (0, 1, 1). Weighting each corner by its function gives
    (w_F + w_R0, w_F + w_R1, w_R0 + w_R1).
    """
    _, w_flip, w_reset0, w_reset1 = _bit_weights(P)
    return (w_flip + w_reset0, w_flip + w_reset1, w_reset0 + w_reset1)
