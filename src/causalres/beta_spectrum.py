"""Image-size spectra and the cumulative monotones built from them.

For a resource with codomain of size n, the spectrum collects the total
weight landing on functions of each image size 1..n. Tail sums of the
spectrum never increase under free operations, and in the variant theory
whose free operations may depend on the resource they act on, tail-sum
dominance is the whole convertibility story.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .core import ZERO, FunctionDistribution, Rational, image_size, probability_vector
from .errors import SizeMismatch


@dataclass(frozen=True)
class BetaSpectrum:
    """weights[k-1] is the probability of drawing a function with image size k."""

    weights: tuple[Rational, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", probability_vector(self.weights, "spectrum weight")
        )

    def weight(self, k: int) -> Rational:
        """Mass on image size k; zero beyond the stored range."""
        if k < 1:
            raise ValueError("image sizes start at 1")
        return self.weights[k - 1] if k <= len(self.weights) else ZERO

    def cumulative(self, k: int) -> Rational:
        """Tail sum over image sizes >= k; identically 1 at k = 1."""
        if k < 1:
            raise ValueError("image sizes start at 1")
        return sum(self.weights[k - 1 :], start=ZERO)


def beta_vector(P: FunctionDistribution) -> BetaSpectrum:
    """Bucket the support of P by image size."""
    buckets = [ZERO] * P.codomain_size
    for f, w in P.items():
        buckets[image_size(f) - 1] += w
    return BetaSpectrum(weights=tuple(buckets))


def cumulative_monotones(P: FunctionDistribution) -> tuple[Rational, ...]:
    """Tail sums of the spectrum, largest image size first.

    The first entry is the chance of drawing a function of maximal image
    size, the last is always 1. One running sum over the reversed spectrum
    gives every tail.
    """
    return tuple(accumulate(reversed(beta_vector(P).weights)))


def alt_convertible(P: FunctionDistribution, Q: FunctionDistribution) -> bool:
    """Tail-sum dominance at every image size.

    Decides convertibility in the variant theory with resource-dependent
    free operations. Spectra over different codomain sizes are not
    comparable; no padding convention is invented here.
    """
    if P.codomain_size != Q.codomain_size:
        raise SizeMismatch(
            f"cannot compare spectra over codomain sizes "
            f"{P.codomain_size} and {Q.codomain_size}"
        )
    return all(
        s >= t for s, t in zip(cumulative_monotones(P), cumulative_monotones(Q))
    )
