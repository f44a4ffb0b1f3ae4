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
from functools import cache
from itertools import product
from math import lcm
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
)
from .errors import ResourceBudgetExceeded, SizeMismatch
from .exactlp import convex_weights
from .rtcaus import is_free_function

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
    return all(is_free_function(f) for f in P.functions())


def _check_comb_budget(
    src_domain: int, src_codomain: int, tgt_domain: int, tgt_codomain: int, budget: int
) -> None:
    """Refuse a conversion signature whose comb count exceeds the budget."""
    for size in (src_domain, src_codomain, tgt_domain, tgt_codomain):
        if size < 1:
            raise ValueError("alphabet sizes must be positive")
    count = src_domain**tgt_domain * tgt_codomain**src_codomain
    if count > budget:
        raise ResourceBudgetExceeded(
            f"{count} extremal combs exceed the budget of {budget}"
        )


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
    _check_comb_budget(src_domain, src_codomain, tgt_domain, tgt_codomain, budget)
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
    P: FunctionDistribution, tgt_domain: int, tgt_codomain: int, budget: int
) -> tuple[int, Iterator[tuple]]:
    """Each distinct image of P as an integer-coded key, with its first comb.

    P's weights become integer numerators over den, their least common
    denominator, and an image's key is its sorted (output table, numerator)
    pairs, so keys compare and sort like `FunctionDistribution.items()`.
    Each pre is composed with the support tables once, and a pre that yields
    the same composed tables as an earlier one can only repeat its images,
    so it is skipped. Returns den and an iterator of (key, pre table, post
    table) for the first comb of each new key, in comb order; the budget is
    checked before this returns. `_image` builds the distribution of a key.
    """
    _check_comb_budget(P.domain_size, P.codomain_size, tgt_domain, tgt_codomain, budget)
    den = lcm(*(w.denominator for _, w in P.items()))
    support = [(f.outputs, w.numerator * (den // w.denominator)) for f, w in P.items()]

    def images() -> Iterator[tuple]:
        posts = list(product(range(tgt_codomain), repeat=P.codomain_size))
        seen: set[tuple] = set()
        seen_mids: set[tuple] = set()
        for pre in product(range(P.domain_size), repeat=tgt_domain):
            mids = tuple(sorted((tuple(t[x] for x in pre), n) for t, n in support))
            if mids in seen_mids:
                continue
            seen_mids.add(mids)
            for post in posts:
                acc: dict[tuple[int, ...], int] = {}
                for mid, n in mids:
                    out = tuple(map(post.__getitem__, mid))
                    acc[out] = acc.get(out, 0) + n
                key = tuple(sorted(acc.items()))
                if key not in seen:
                    seen.add(key)
                    yield key, pre, post

    return den, images()


def _image(domain: int, codomain: int, den: int, key: tuple) -> FunctionDistribution:
    return FunctionDistribution(
        domain,
        codomain,
        {FiniteFunction(domain, codomain, t): Rational(n, den) for t, n in key},
    )


def _hull_weights(
    target_key: tuple, point_keys: Iterable[tuple]
) -> Optional[dict[tuple, Rational]]:
    """Positive weights of image keys that mix exactly to target_key, or None.

    Keys are sorted (output table, numerator) pairs over the images' common
    denominator den; a target with weights off den's grid has non-integer
    numerators. A mixture of nonnegative points puts weight only where the
    target does, so callers pass only points supported inside supp(target),
    and the target's tables are the whole axis of the LP.
    """
    points = list(point_keys)
    coords = [dict(key) for key in points]
    # The numerators go in without dividing by den. This needs every point
    # supported inside the target's tables: its numerators then sum to den,
    # as do the target's, so the coordinate rows sum to den times the
    # normalization row, the phase-1 costs are a positive multiple of those
    # over den, and the pivots and weights are the same.
    weights = convex_weights(
        [[p.get(t, 0) for t, _ in target_key] for p in coords],
        [n for _, n in target_key],
    )
    if weights is None:
        return None
    return {key: w for key, w in zip(points, weights) if w > 0}


def know_convertible(
    P: FunctionDistribution,
    Q: FunctionDistribution,
    budget: int = DEFAULT_COMB_BUDGET,
) -> ConversionVerdict:
    """Decide whether some free operation maps P exactly to Q.

    Q is convertible from P exactly when it lies in the convex hull of the
    images of P under the extremal combs, so after deduplicating images the
    question goes to the feasibility LP over the images supported inside
    supp(Q), the only ones a mixture equal to Q can use; images stay
    integer-coded keys all the way into the LP, and combs are built as
    objects only for the certificate.
    One shortcut keeps desk-scale runs fast without changing any verdict: a
    resource reachable by a single comb returns that comb as a point
    certificate without touching the LP (the identity comb answers
    reflexive questions before any other is tried).
    """
    d, c = Q.domain_size, Q.codomain_size
    den, images = _distinct_images(P, d, c, budget)
    if P == Q:
        ident = ExtremalComb(
            FiniteFunction.identity(P.domain_size),
            FiniteFunction.identity(P.codomain_size),
        )
        return ConversionVerdict(True, CombMixture.point(ident))

    def comb(pre: tuple[int, ...], post: tuple[int, ...]) -> ExtremalComb:
        return ExtremalComb(
            FiniteFunction(d, P.domain_size, pre), FiniteFunction(P.codomain_size, c, post)
        )

    # A weight of Q off P's denominator leaves a non-integer numerator here,
    # so the key of Q then equals no image key.
    target = tuple((f.outputs, w * den) for f, w in Q.items())
    on_axis = {f.outputs for f in Q.functions()}
    inside: dict[tuple, tuple] = {}
    for key, pre, post in images:
        if key == target:
            return ConversionVerdict(True, CombMixture.point(comb(pre, post)))
        if on_axis.issuperset(t for t, _ in key):
            inside[key] = (pre, post)

    weights = _hull_weights(target, inside)
    if weights is None:
        return ConversionVerdict(False, None)
    certificate = CombMixture({comb(*inside[key]): w for key, w in weights.items()})
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
    supp(c), and that smaller hull is the one tested. Candidates stay
    integer-coded keys, and only the vertices are built as objects.
    """
    d, c = P.domain_size, P.codomain_size
    den, images = _distinct_images(P, d, c, budget)
    keys = [key for key, _, _ in images]
    supports = [{t for t, _ in key} for key in keys]
    return [
        _image(d, c, den, key)
        for i, key in enumerate(keys)
        if _hull_weights(
            key,
            (other for j, other in enumerate(keys) if j != i and supports[j] <= supports[i]),
        )
        is None
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

    @cache
    def reaches(a: FunctionDistribution, b: FunctionDistribution) -> bool:
        return know_convertible(a, b, budget=budget).convertible

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
