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

from .bit2bit import FLIP, IDENT, RESET0, RESET1, _require_bits
from .core import (
    ZERO,
    FunctionDistribution,
    Rational,
    StochasticMap,
    alphabet_size,
    canonical_preimage,
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
    _require_bits(P)
    if y not in (0, 1):
        raise ValueError(f"output {y!r} is not a bit")
    beta = P.weight(IDENT) + P.weight(FLIP)
    marginal = beta + 2 * P.weight(RESET1 if y else RESET0)
    if marginal == ZERO:
        raise ZeroMarginal(f"output {y} has zero marginal under this prior")
    return beta / marginal


def max_postselected_connection(P: FunctionDistribution) -> Rational:
    """Best certainty of causal connection over observable outputs.

    Uses the uniform prior. Outputs that cannot occur are skipped rather
    than treated as vacuous certainty.
    """
    best = ZERO
    for y in (0, 1):
        try:
            value = posterior_causal_connection(P, y)
        except ZeroMarginal:
            continue
        best = max(best, value)
    return best


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
    _require_bits(P)
    return P.weight(IDENT) - P.weight(FLIP)


def min_beta_over_preimage(
    S: StochasticMap,
) -> tuple[Rational, FunctionDistribution]:
    """Least connection weight among resources inducing S, with a witness.

    All resources inducing S differ only by sliding weight between the
    balanced identity/flip mixture and the balanced reset mixture. Sliding
    down as far as nonnegativity allows zeroes out the lighter of the two
    nonconstant weights, and what remains of the connection weight is
    exactly the absolute average causal effect of S.
    """
    bound = abs(ace(S))
    base = canonical_preimage(S)
    w_ident = base.weight(IDENT)
    w_flip = base.weight(FLIP)
    slide = min(w_ident, w_flip)
    witness = FunctionDistribution(
        2,
        2,
        {
            IDENT: w_ident - slide,
            FLIP: w_flip - slide,
            RESET0: base.weight(RESET0) + slide,
            RESET1: base.weight(RESET1) + slide,
        },
    )
    if to_stochastic(witness) != S:
        raise AssertionError("fiber witness left the preimage of S")
    if witness.weight(IDENT) + witness.weight(FLIP) != bound:
        raise AssertionError("fiber witness missed the lower bound")
    return bound, witness
