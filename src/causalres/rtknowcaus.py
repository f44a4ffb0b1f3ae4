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
from itertools import permutations, product
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    ONE,
    ExactDistribution,
    ExtremalComb,
    FiniteFunction,
    FunctionDistribution,
    Rational,
    all_functions,
    alphabet_size,
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
    """Refuse a conversion signature whose comb count exceeds the budget.

    The four sizes must be positive integers and the budget a nonnegative
    integer, neither of them a bool.
    """
    for size in (src_domain, src_codomain, tgt_domain, tgt_codomain):
        alphabet_size(size, "alphabet size")
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
        raise ValueError("budget must be a nonnegative integer")
    # Alphabet sizes come from headers, so the count is bounded before it is
    # formed. A base x >= 2 gives x**e more than e * (x.bit_length() - 1)
    # bits and at most twice that. A count past both the budget's bit length
    # and 1,024 bits is refused unformed, named by its signature as below.
    low_bits = tgt_domain * (src_domain.bit_length() - 1) + src_codomain * (
        tgt_codomain.bit_length() - 1
    )
    count = (
        None
        if low_bits >= max(budget.bit_length(), 1024)
        else src_domain**tgt_domain * tgt_codomain**src_codomain
    )
    if count is None or count > budget:
        # Python refuses to print an int past its digit limit (640 digits at
        # the least), so a count too long for that is named by its signature.
        shown = (
            count
            if count is not None and count.bit_length() <= 1024
            else f"{src_domain}^{tgt_domain} * {tgt_codomain}^{src_codomain}"
        )
        raise ResourceBudgetExceeded(f"{shown} extremal combs exceed the budget of {budget}")


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
    posts = list(all_functions(src_codomain, tgt_codomain))
    return [
        ExtremalComb(pre, post)
        for pre in all_functions(tgt_domain, src_domain)
        for post in posts
    ]


def apply_extremal(comb: ExtremalComb, P: FunctionDistribution) -> FunctionDistribution:
    """Pushforward of P along f -> post . f . pre: the mixture of one comb."""
    return apply_mixture(CombMixture.point(comb), P)


def apply_mixture(m: CombMixture, P: FunctionDistribution) -> FunctionDistribution:
    """Weighted pushforward; convexity of the weights keeps it normalized.

    The combs of m share one signature and every f shares P's sizes, so
    `compose_functions` on the first (comb, f) pair refuses a comb of the
    wrong sizes for all of them. Every pair's table is then composed by
    indexing, post[f[pre[x]]], with an integer numerator over one
    denominator, the lcm of m's denominators times the lcm of P's;
    numerators of one table add up as integers. `_image`, the one decoder
    of integer-coded tables, builds the distribution of the sums, which
    checks their exact total.
    """
    first = m.items()[0][0]
    compose_functions(first.post, compose_functions(P.functions()[0], first.pre))
    m_den = lcm(*(w.denominator for _, w in m.items()))
    p_den = lcm(*(w.denominator for _, w in P.items()))
    tables = [(f.outputs, w.numerator * (p_den // w.denominator)) for f, w in P.items()]
    acc: dict[tuple[int, ...], int] = {}
    for comb, w in m.items():
        n = w.numerator * (m_den // w.denominator)
        pre, post = comb.pre.outputs, comb.post.outputs
        for table, k in tables:
            out = tuple([post[table[x]] for x in pre])
            acc[out] = acc.get(out, 0) + n * k
    return _image(first.pre.domain_size, first.post.codomain_size, m_den * p_den, acc.items())


def _getter(positions: tuple[int, ...]) -> itemgetter:
    """Read a table at positions as a tuple, a one-position read included."""
    if len(positions) == 1:
        # itemgetter with one index returns the bare item, not a 1-tuple.
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


def _distinct_images(
    P: FunctionDistribution,
    tgt_domain: int,
    tgt_codomain: int,
    budget: int,
    axis: Optional[Iterable[tuple[int, ...]]] = None,
) -> tuple[int, Iterator[tuple]]:
    """Each distinct image of P supported inside axis, as a key with its first comb.

    axis is a set of output tables, every table when None. P's weights
    become integer numerators over den, their least common denominator, and
    an image's key is its sorted (output table, numerator) pairs. Tables of
    one signature sort like the natural order of their functions, so keys
    compare and sort like `FunctionDistribution.items()`. Each pre is
    composed with the support tables through one getter, and a pre that
    yields the same composed tables, in support order, as an earlier one can
    only repeat its images, so it is skipped. Only posts that keep every
    composed table inside the axis are built: each source letter takes only
    the values the axis allows at every position where a composed table
    reads it, and a letter no table reads stays at 0, which changes no image
    and is where the first post of each image has it. A letter's reading
    positions are a bit mask, and the values allowed for each mask are
    worked out once per walk. Each composed table gets one getter, which
    composes it with every post of its pre. Returns den and an iterator of
    (key, pre table, post table) for the first comb of each new key, in comb
    order; the budget is checked before this returns. `_image` builds the
    distribution of a key.
    """
    _check_comb_budget(P.domain_size, P.codomain_size, tgt_domain, tgt_codomain, budget)
    den = lcm(*(w.denominator for _, w in P.items()))
    tables = [f.outputs for f in P.functions()]
    numerators = [w.numerator * (den // w.denominator) for _, w in P.items()]
    on_axis = set(
        product(range(tgt_codomain), repeat=tgt_domain) if axis is None else axis
    )
    columns = [frozenset(col) for col in zip(*on_axis)]
    bits = [1 << x for x in range(tgt_domain)]
    allowed: dict[int, tuple[int, ...]] = {0: (0,)}

    def values(mask: int) -> tuple[int, ...]:
        if mask not in allowed:
            read = (col for col, bit in zip(columns, bits) if mask & bit)
            allowed[mask] = tuple(sorted(frozenset.intersection(*read)))
        return allowed[mask]

    def images() -> Iterator[tuple]:
        seen: set[tuple] = set()
        seen_mids: set[tuple] = set()
        for pre in product(range(P.domain_size), repeat=tgt_domain):
            mids = tuple(map(_getter(pre), tables))
            if mids in seen_mids:
                continue
            seen_mids.add(mids)
            masks = [0] * P.codomain_size
            for mid in mids:
                for bit, m in zip(bits, mid):
                    masks[m] |= bit
            getters = [(_getter(mid), n) for mid, n in zip(mids, numerators)]
            for post in product(*map(values, masks)):
                acc: dict[tuple[int, ...], int] = {}
                for get, n in getters:
                    out = get(post)
                    if out not in on_axis:
                        break
                    acc[out] = acc.get(out, 0) + n
                else:
                    key = tuple(sorted(acc.items()))
                    if key not in seen:
                        seen.add(key)
                        yield key, pre, post

    return den, images()


def _image(domain: int, codomain: int, den: int, key: Iterable[tuple]) -> FunctionDistribution:
    """The distribution of integer-coded (output table, numerator) pairs over den."""
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
    and the target's tables are the whole axis of the LP. Each coordinate
    of a convex combination lies between its points' extremes, so no
    points, or a target numerator above every point's or below every
    point's on one table, refutes the test on the keys, before the LP. A
    target that the points can mix passes every such bound, so its pivots
    and weights are untouched.
    """
    points = list(point_keys)
    if not points:
        return None
    coords = [dict(key) for key in points]
    columns = []
    for t, n in target_key:
        column = [p.get(t, 0) for p in coords]
        if n > max(column) or n < min(column):
            return None
        columns.append(column)
    # The numerators go in without dividing by den. This needs every point
    # supported inside the target's tables: its numerators then sum to den,
    # as do the target's, so the coordinate rows sum to den times the
    # normalization row, the phase-1 costs are a positive multiple of those
    # over den, and the pivots and weights are the same.
    weights = convex_weights(list(zip(*columns)), [n for _, n in target_key])
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
    images of P under the extremal combs. A mixture equal to Q can use only
    images supported inside supp(Q), so the image search builds only those,
    with supp(Q)'s tables as its axis, and the deduplicated images go to
    the hull test, which refutes on the keys what the coordinate bounds
    decide and hands the rest to the feasibility LP; images stay
    integer-coded keys all the way into the LP, and combs are built as
    objects only for the certificate.
    A certificate comes from one of three routes: the identity comb when
    P == Q, the first comb whose image is Q (found without the LP), or the
    LP's mixture. Whichever route finds it, it is applied to P again and
    must give Q exactly before it is returned.
    """
    d, c = Q.domain_size, Q.codomain_size
    den, images = _distinct_images(P, d, c, budget, (f.outputs for f in Q.functions()))

    def comb(pre: tuple[int, ...], post: tuple[int, ...]) -> ExtremalComb:
        return ExtremalComb(
            FiniteFunction(d, P.domain_size, pre), FiniteFunction(P.codomain_size, c, post)
        )

    if P == Q:
        certificate = CombMixture.point(comb(tuple(range(d)), tuple(range(c))))
    else:
        # A weight of Q off P's denominator leaves a non-integer numerator
        # here, so the key of Q then equals no image key.
        target = tuple((f.outputs, w * den) for f, w in Q.items())
        inside: dict[tuple, tuple] = {}
        for key, pre, post in images:
            if key == target:
                certificate = CombMixture.point(comb(pre, post))
                break
            inside[key] = (pre, post)
        else:
            weights = _hull_weights(target, inside)
            if weights is None:
                return ConversionVerdict(False, None)
            certificate = CombMixture({comb(*inside[key]): w for key, w in weights.items()})
    if apply_mixture(certificate, P) != Q:
        raise AssertionError("certificate failed to reproduce the target")
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
    supp(c), and that smaller hull is the one tested; its points are
    gathered from an index of the candidates by support set, in candidate
    order. Relabelling the inputs and outputs by bijections g = (pi, sigma)
    is a comb, so it permutes the candidates, and being a vertex is constant
    on each orbit: one LP decides the first candidate of an orbit, and its
    verdict is written for every g . c in one map from key to verdict.
    Candidates stay integer-coded keys, and only the vertices are built as
    objects.
    """
    d, c = P.domain_size, P.codomain_size
    den, images = _distinct_images(P, d, c, budget)
    keys = [key for key, _, _ in images]
    by_support: dict[frozenset, list[int]] = {}
    for i, key in enumerate(keys):
        by_support.setdefault(frozenset(t for t, _ in key), []).append(i)
    relabellings = list(product(permutations(range(d)), permutations(range(c))))
    vertex: dict[tuple, bool] = {}
    for i, key in enumerate(keys):
        if key in vertex:
            continue
        support = frozenset(t for t, _ in key)
        inside = sorted(j for s, js in by_support.items() if s <= support for j in js if j != i)
        verdict = _hull_weights(key, (keys[j] for j in inside)) is None
        for pi, sigma in relabellings:
            moved = tuple(sorted((tuple(sigma[t[x]] for x in pi), n) for t, n in key))
            vertex[moved] = verdict
    # The image set is closed under relabelling, so the verdicts cover
    # exactly the keys; a g . key outside them would mean the kernel missed
    # an image.
    if len(vertex) != len(keys):
        raise AssertionError("relabelling left the image set")
    return [_image(d, c, den, key) for key in keys if vertex[key]]


def hasse(
    resources: Sequence[tuple[str, FunctionDistribution]],
    budget: int = DEFAULT_COMB_BUDGET,
) -> HasseGraph:
    """Order the labeled resources and reduce to the cover relation.

    The comb budget of the one signature is checked once, before any
    question. Labels with equal distributions share one node, and verdicts
    are kept per node. Mutually convertible nodes are merged into one
    class: each node joins the class of the first earlier node equivalent
    to it, or starts its own, so no resource is ever asked about itself.
    Equivalence is transitive, so that first node is also the first of its
    class, and it stands for the class in the cover test, which only needs
    to exclude two-step chains.

    A pair is settled from verdicts already held before `know_convertible`
    is asked: a -> m and m -> b give a -> b, while m -> a without m -> b, or
    b -> m without a -> m, rule a -> b out.
    """
    sizes = {(d.domain_size, d.codomain_size) for _, d in resources}
    if len(sizes) > 1:
        raise SizeMismatch(f"resources span several signatures: {sorted(sizes)}")
    for d, c in sizes:
        _check_comb_budget(d, c, d, c, budget)
    ids: dict[FunctionDistribution, int] = {}
    nodes = [ids.setdefault(dist, len(ids)) for _, dist in resources]
    distinct = list(ids)
    known: list[list[Optional[bool]]] = [[None] * len(distinct) for _ in distinct]

    def settled(a: int, b: int) -> bool:
        for am, mb, ma, bm in zip(
            known[a], (row[b] for row in known), (row[a] for row in known), known[b]
        ):
            if am and mb:
                return True
            if (ma and mb is False) or (bm and am is False):
                return False
        return know_convertible(distinct[a], distinct[b], budget=budget).convertible

    def reaches(a: int, b: int) -> bool:
        if known[a][b] is None:
            known[a][b] = settled(a, b)
        return known[a][b]

    first = [
        next((b for b in range(a) if reaches(a, b) and reaches(b, a)), a)
        for a in range(len(distinct))
    ]
    reps = sorted(set(first))
    k = len(reps)
    dominates = [[a != b and reaches(a, b) for b in reps] for a in reps]
    edges = tuple(
        (a, b)
        for a in range(k)
        for b in range(k)
        if dominates[a][b]
        and not any(dominates[a][c] and dominates[c][b] for c in range(k))
    )
    classes = tuple(
        tuple(label for (label, _), node in zip(resources, nodes) if first[node] == rep)
        for rep in reps
    )
    return HasseGraph(classes=classes, edges=edges)
