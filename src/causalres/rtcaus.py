"""Resource theory of causal influence for deterministic functions.

Free objects are the constant functions, free operations are deterministic
pre/post-processings, and the induced order is total: f reaches g exactly
when the image of f is at least as large as the image of g. The witness
construction below is the constructive half of that claim, with all
tie-breaking made deterministic so a witness for a given pair is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ExtremalComb, FiniteFunction, compose_functions, image_size
from .errors import NotConvertible

# A witness is the same deterministic (pre, post) pair that spans the free
# polytope of the probabilistic theory.
DeterministicWitness = ExtremalComb


@dataclass(frozen=True)
class InfluenceBits:
    """Image count together with its base-2 logarithm.

    The count is the exact quantity; `bits` is the float log and is exact
    only when the count is a power of two.
    """

    image_size: int
    bits: float


def is_free_function(f: FiniteFunction) -> bool:
    """Constant functions carry no causal influence."""
    return image_size(f) == 1


def caus_convertible(f: FiniteFunction, g: FiniteFunction) -> bool:
    """f reaches g under deterministic pre/post-processing."""
    return image_size(f) >= image_size(g)


def caus_monotone(f: FiniteFunction) -> InfluenceBits:
    """Bits of causal influence: log2 of the image size."""
    n = image_size(f)
    return InfluenceBits(image_size=n, bits=math.log2(n))


def conversion_witness(f: FiniteFunction, g: FiniteFunction) -> DeterministicWitness:
    """Build and verify a deterministic witness taking f to g.

    With im f and im g enumerated ascending, pre sends x to the smallest
    input that f maps onto f_image[k], where k is the index of g(x) in
    g_image. post sends the k-th element of f_image to the k-th element of
    g_image for k < |im g|, and every other output to the smallest element
    of im g. The composed table is checked against g before returning.
    """
    if not caus_convertible(f, g):
        raise NotConvertible(
            f"image size {image_size(f)} cannot reach image size {image_size(g)}"
        )
    f_image = f.image()
    g_image = g.image()
    pre = FiniteFunction(
        g.domain_size,
        f.domain_size,
        tuple(f.outputs.index(f_image[g_image.index(z)]) for z in g.outputs),
    )
    rank = {z: k for k, z in enumerate(f_image[: len(g_image)])}
    post = FiniteFunction(
        f.codomain_size,
        g.codomain_size,
        tuple(g_image[rank.get(y, 0)] for y in range(f.codomain_size)),
    )

    rebuilt = compose_functions(post, compose_functions(f, pre))
    if rebuilt != g:
        raise AssertionError(f"witness reconstruction produced {rebuilt.outputs}")
    return DeterministicWitness(pre=pre, post=post)
