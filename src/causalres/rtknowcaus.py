"""Resource theory of knowledge of causal influence.

Resources are exact distributions over functions. A free operation draws a
deterministic (pre, post) pair from a common-cause distribution, so the free
polytope is spanned by the finitely many deterministic pairs and every
convertibility question reduces to convex-hull membership over their images.
That membership test, the downward-closure vertex list and the Hasse diagram
over labeled resources all run on the exact LP in `exactlp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    ONE,
    ZERO,
    ExactDistribution,
    ExtremalComb,
    FiniteFunction,
    FunctionDistribution,
    Rational,
    compose_functions,
    image_size,
)
from .errors import ResourceBudgetExceeded, SizeMismatch
from .exactlp import convex_weights

DEFAULT_COMB_BUDGET = 10**6


class CombMixture(ExactDistribution):
    """Common-cause-correlated mixture of deterministic (pre, post) pairs.

    All supported combs must share one signature. `items()` is sorted by
    (pre table, post table).
    """

    __slots__ = ()

    def _check_outcomes(self, outcomes: Iterable) -> None:
        signatures = set()
        for comb in outcomes:
            if not isinstance(comb, ExtremalComb):
                raise TypeError(f"support keys must be combs, got {comb!r}")
            signatures.add(
                (
                    comb.pre.domain_size,
                    comb.pre.codomain_size,
                    comb.post.domain_size,
                    comb.post.codomain_size,
                )
            )
        if len(signatures) > 1:
            raise SizeMismatch(f"combs of several signatures: {sorted(signatures)}")

    @staticmethod
    def _sort_key(item: tuple) -> object:
        comb = item[0]
        return (comb.pre.outputs, comb.post.outputs)

    @classmethod
    def point(cls, comb: ExtremalComb) -> "CombMixture":
        return cls({comb: ONE})

    def __repr__(self) -> str:
        inner = ", ".join(
            f"({c.pre.outputs}, {c.post.outputs}): {w}" for c, w in self._items
        )
        return f"CombMixture({{{inner}}})"


@dataclass(frozen=True)
class ConversionVerdict:
    """Outcome of a convertibility question, with certificate when positive."""

    convertible: bool
    certificate: Optional[CombMixture]

    def __bool__(self) -> bool:
        return self.convertible


@dataclass(frozen=True)
class HasseGraph:
    """Equivalence classes of labels plus the cover edges between them.

    Edges are (upper, lower) index pairs into `classes`; the relation is the
    transitive reduction of the class order, so nothing implied by longer
    chains is stored.
    """

    classes: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int], ...]


def is_free_resource(P: FunctionDistribution) -> bool:
    """True when every supported function is constant."""
    return all(image_size(f) == 1 for f in P.functions())


def enumerate_extremal_combs(
    src_domain: int,
    src_codomain: int,
    tgt_domain: int,
    tgt_codomain: int,
    budget: int = DEFAULT_COMB_BUDGET,
) -> list[ExtremalComb]:
    """All deterministic (pre, post) pairs for the given conversion signature.

    Pre maps the target domain into the source domain and post maps the
    source codomain into the target codomain. Pairs come out in lexicographic
    order of (pre table, post table). The count is checked against the budget
    before anything is materialized.
    """
    for size in (src_domain, src_codomain, tgt_domain, tgt_codomain):
        if size < 1:
            raise ValueError("alphabet sizes must be positive")
    count = src_domain**tgt_domain * tgt_codomain**src_codomain
    if count > budget:
        raise ResourceBudgetExceeded(
            f"{count} extremal combs exceed the budget of {budget}"
        )
    pres = [
        FiniteFunction(tgt_domain, src_domain, outputs)
        for outputs in product(range(src_domain), repeat=tgt_domain)
    ]
    posts = [
        FiniteFunction(src_codomain, tgt_codomain, outputs)
        for outputs in product(range(tgt_codomain), repeat=src_codomain)
    ]
    return [ExtremalComb(pre, post) for pre in pres for post in posts]


def apply_extremal(comb: ExtremalComb, P: FunctionDistribution) -> FunctionDistribution:
    """Pushforward of P along f -> post . f . pre."""
    if comb.pre.codomain_size != P.domain_size or comb.post.domain_size != P.codomain_size:
        raise SizeMismatch(
            f"comb expects a {comb.pre.codomain_size}->{comb.post.domain_size} resource, "
            f"got {P.domain_size}->{P.codomain_size}"
        )
    acc: dict[FiniteFunction, Rational] = {}
    for f, w in P.items():
        h = compose_functions(comb.post, compose_functions(f, comb.pre))
        acc[h] = acc.get(h, ZERO) + w
    return FunctionDistribution(comb.pre.domain_size, comb.post.codomain_size, acc)


def apply_mixture(m: CombMixture, P: FunctionDistribution) -> FunctionDistribution:
    """Weighted pushforward; convexity of the weights keeps it normalized."""
    acc: dict[FiniteFunction, Rational] = {}
    for comb, w in m.items():
        for f, p in apply_extremal(comb, P).items():
            acc[f] = acc.get(f, ZERO) + w * p
    first = m.items()[0][0]
    return FunctionDistribution(first.pre.domain_size, first.post.codomain_size, acc)


def _distinct_images(
    P: FunctionDistribution, combs: Iterable[ExtremalComb]
) -> Iterator[tuple[FunctionDistribution, ExtremalComb]]:
    """Each distinct image of P, with the first comb producing it, in comb order."""
    seen: set[FunctionDistribution] = set()
    for comb in combs:
        image = apply_extremal(comb, P)
        if image not in seen:
            seen.add(image)
            yield image, comb


def _hull_weights(
    target: FunctionDistribution, points: Iterable[FunctionDistribution]
) -> Optional[dict[FunctionDistribution, Rational]]:
    """Positive weights of points that mix exactly to target, or None.

    A mixture of nonnegative points puts weight only where target does, so
    only points supported inside supp(target) can take part, and the
    functions of target are the whole axis of the LP.
    """
    axis = target.functions()
    on_axis = set(axis)
    inside = [p for p in points if on_axis.issuperset(p.functions())]
    weights = convex_weights(
        [[p.weight(f) for f in axis] for p in inside], [target.weight(f) for f in axis]
    )
    if weights is None:
        return None
    return {p: w for p, w in zip(inside, weights) if w > 0}


def know_convertible(
    P: FunctionDistribution,
    Q: FunctionDistribution,
    budget: int = DEFAULT_COMB_BUDGET,
) -> ConversionVerdict:
    """Decide whether some free operation maps P exactly to Q.

    Q is convertible from P exactly when it lies in the convex hull of the
    images of P under the extremal combs, so after deduplicating images the
    question goes to the feasibility LP over the images supported inside
    supp(Q), the only ones a mixture equal to Q can use. One shortcut keeps
    desk-scale runs fast without changing any verdict: a resource reachable
    by a single comb returns that comb as a point certificate without
    touching the LP (the identity comb answers reflexive questions before
    any other is tried).
    """
    combs = enumerate_extremal_combs(
        P.domain_size, P.codomain_size, Q.domain_size, Q.codomain_size, budget=budget
    )
    if P == Q:
        ident = ExtremalComb(
            FiniteFunction.identity(P.domain_size),
            FiniteFunction.identity(P.codomain_size),
        )
        return ConversionVerdict(True, CombMixture.point(ident))

    reps: dict[FunctionDistribution, ExtremalComb] = {}
    for image, comb in _distinct_images(P, combs):
        if image == Q:
            return ConversionVerdict(True, CombMixture.point(comb))
        reps[image] = comb

    weights = _hull_weights(Q, reps)
    if weights is None:
        return ConversionVerdict(False, None)
    certificate = CombMixture({reps[image]: w for image, w in weights.items()})
    if apply_mixture(certificate, P) != Q:
        raise AssertionError("feasible LP weights failed to reproduce the target")
    return ConversionVerdict(True, certificate)


def downward_closure_vertices(
    P: FunctionDistribution, budget: int = DEFAULT_COMB_BUDGET
) -> list[FunctionDistribution]:
    """Vertices of the polytope of resources reachable from P.

    The closure keeps the signature of P. Candidate points are the distinct
    images of P under the extremal combs; a candidate c is a vertex exactly
    when it is not a convex combination of the remaining candidates, which
    is safe to test pointwise because interior candidates only ever lean on
    vertices, never on each other. A mixture equal to c uses only points
    supported inside supp(c), so c lies in the hull of the other candidates
    exactly when it lies in the hull of those among them supported inside
    supp(c), and that smaller hull is the one tested.
    """
    combs = enumerate_extremal_combs(
        P.domain_size, P.codomain_size, P.domain_size, P.codomain_size, budget=budget
    )
    images = [image for image, _ in _distinct_images(P, combs)]
    return [
        image
        for i, image in enumerate(images)
        if _hull_weights(image, images[:i] + images[i + 1 :]) is None
    ]


def hasse(
    resources: Sequence[tuple[str, FunctionDistribution]],
    budget: int = DEFAULT_COMB_BUDGET,
) -> HasseGraph:
    """Order the labeled resources and reduce to the cover relation.

    Mutually convertible resources are merged into one class. Convertibility
    is transitive, so class membership can be settled against a single
    representative and the cover test only needs to exclude two-step chains.
    """
    if not resources:
        return HasseGraph(classes=(), edges=())
    labels = [label for label, _ in resources]
    dists = [dist for _, dist in resources]
    sizes = {(d.domain_size, d.codomain_size) for d in dists}
    if len(sizes) > 1:
        raise SizeMismatch(f"resources span several signatures: {sorted(sizes)}")

    cache: dict[tuple[FunctionDistribution, FunctionDistribution], bool] = {}

    def reaches(a: FunctionDistribution, b: FunctionDistribution) -> bool:
        if a == b:
            return True
        key = (a, b)
        if key not in cache:
            cache[key] = know_convertible(a, b, budget=budget).convertible
        return cache[key]

    class_members: list[list[int]] = []
    class_rep: list[FunctionDistribution] = []
    for idx, dist in enumerate(dists):
        for cls, rep in enumerate(class_rep):
            if reaches(dist, rep) and reaches(rep, dist):
                class_members[cls].append(idx)
                break
        else:
            class_members.append([idx])
            class_rep.append(dist)

    k = len(class_rep)
    dominates = [
        [a != b and reaches(class_rep[a], class_rep[b]) for b in range(k)]
        for a in range(k)
    ]
    edges = tuple(
        (a, b)
        for a in range(k)
        for b in range(k)
        if dominates[a][b]
        and not any(dominates[a][c] and dominates[c][b] for c in range(k))
    )
    classes = tuple(tuple(labels[i] for i in members) for members in class_members)
    return HasseGraph(classes=classes, edges=edges)
