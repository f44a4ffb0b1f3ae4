"""Operational quantities: guessing games, postselected posteriors, ACE.

These connect a distribution over functions to what an observer of the
induced conditional distribution can actually do. The guessing probability
works for any alphabet. The posterior of causal connection and the average
causal effect are bit-to-bit quantities, and the fiber minimum shows how
much of the connection weight is forced by the conditional alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bit2bit import FLIP, IDENT, RESET0, RESET1, _bit_weights, monotone_triple
from .core import (
    ONE,
    ZERO,
    FunctionDistribution,
    Rational,
    StochasticMap,
    alphabet_size,
    probability_vector,
    to_stochastic,
)
from .errors import SizeMismatch, ZeroMarginal


@dataclass(frozen=True)
class Prior:
    """Exact distribution over the input alphabet."""

    weights: tuple[Rational, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", probability_vector(self.weights, "prior weight")
        )

    @classmethod
    def uniform(cls, size: int) -> "Prior":
        return cls(weights=(Rational(1, alphabet_size(size, "prior size")),) * size)

    def __len__(self) -> int:
        return len(self.weights)


def guessing_probability(
    P: FunctionDistribution, prior: Optional[Prior] = None
) -> Rational:
    """Best achievable probability of guessing the input from one output.

    The guesser picks an argmax of the joint weight for each output. The
    joint weights are read from P's support, so outputs that no supported
    function produces never occur and contribute nothing.
    """
    if prior is None:
        prior = Prior.uniform(P.domain_size)
    elif len(prior) != P.domain_size:
        raise SizeMismatch(
            f"prior over {len(prior)} inputs against domain size {P.domain_size}"
        )
    joint: dict[int, dict[int, Rational]] = {}
    for f, w in P.items():
        for x, y in enumerate(f.outputs):
            row = joint.setdefault(y, {})
            row[x] = row.get(x, ZERO) + prior.weights[x] * w
    return sum((max(row.values()) for row in joint.values()), start=ZERO)


def posterior_causal_connection(P: FunctionDistribution, y: int) -> Rational:
    """Posterior weight on the nonconstant functions after observing y.

    The prior is uniform, so each function's weight counts once per input it
    sends to y. Identity and flip each send one input to y, the reset to y
    sends both and the other reset none: the posterior is
    beta / (beta + 2 w(R_y)) with beta = w_I + w_F.
    """
    w_ident, w_flip, w_reset0, w_reset1 = _bit_weights(P)
    if y not in (0, 1):
        raise ValueError(f"output {y!r} is not a bit")
    beta = w_ident + w_flip
    marginal = beta + 2 * (w_reset1 if y else w_reset0)
    if marginal == ZERO:
        raise ZeroMarginal(f"output {y} has zero marginal under this prior")
    return beta / marginal


def max_postselected_connection(P: FunctionDistribution) -> Rational:
    """Best certainty of causal connection over observable outputs.

    Uses the uniform prior, and is the connection monotone m_gamma_beta of
    `monotone_triple`. When beta > 0 both outputs occur, and the posterior
    beta / (beta + 2 w(R_y)) is largest after the output whose reset weighs
    less: max over y equals beta / (beta + 2 min(w_R0, w_R1)). When beta = 0
    every observable output's posterior is 0; an output that cannot occur
    is not counted as vacuous certainty.
    """
    return monotone_triple(P).m_gamma_beta


def ace(S: StochasticMap) -> Rational:
    """Average causal effect of a binary conditional: P(1|1) - P(1|0)."""
    if (S.input_size, S.output_size) != (2, 2):
        raise SizeMismatch("average causal effect is defined for 2x2 maps only")
    return S.entries[1][1] - S.entries[1][0]


def ace_dist(P: FunctionDistribution) -> Rational:
    """Average causal effect read directly off the resource weights.

    Equals the weight on the identity minus the weight on the flip, and
    agrees with `ace` of the induced conditional.
    """
    w_ident, w_flip, _, _ = _bit_weights(P)
    return w_ident - w_flip


def min_beta_over_preimage(
    S: StochasticMap,
) -> tuple[Rational, FunctionDistribution]:
    """Least connection weight among resources inducing S, with a witness.

    With a = S(1|0) and b = S(1|1), a resource induces S exactly when
    w_F + w_R1 = a and w_I + w_R1 = b, so w_I - w_F = b - a is the average
    causal effect and the connection weight w_I + w_F is at least its
    magnitude. The witness meets that bound: it puts max(ACE, 0) on the
    identity, max(-ACE, 0) on the flip, 1 - max(a, b) on reset-to-0 and
    min(a, b) on reset-to-1.
    """
    effect = ace(S)
    a, b = S.entries[1]
    witness = FunctionDistribution(
        2,
        2,
        {
            IDENT: max(effect, ZERO),
            FLIP: max(-effect, ZERO),
            RESET0: ONE - max(a, b),
            RESET1: min(a, b),
        },
    )
    bound = abs(effect)
    if to_stochastic(witness) != S:
        raise AssertionError("fiber witness left the preimage of S")
    if witness.weight(IDENT) + witness.weight(FLIP) != bound:
        raise AssertionError("fiber witness missed the lower bound")
    return bound, witness
