"""Exact primitives shared by both resource theories.

A function between finite index sets is stored as its output table, a
resource is an exact probability distribution over such functions, a free
operation is built from deterministic (pre, post) pairs, and the bridge to
conditional distributions is the pair `to_stochastic` / `canonical_preimage`.
Every weight is a `fractions.Fraction`; floats are rejected at construction
because a verdict that sits on a polytope facet cannot survive rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Hashable, Iterable, Iterator, Mapping, Union

from .errors import SizeMismatch

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

WeightLike = Union[Rational, int, str]


def exact(value: WeightLike) -> Rational:
    """Coerce to Fraction, refusing floats (they already lost exactness).

    A string is an optional sign, then an integer, a/b or a decimal, in
    ASCII digits. Everything else `Fraction` would take is refused first:
    an exponent, which it expands ("1e-10000000" into a ten-million-digit
    integer), and the underscores, non-ASCII digits and surrounding
    whitespace it accepts, some of them only on some Python versions.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float weight {value!r}")
    # `fractions` imports `re` already, and `re` caches the compiled pattern.
    if isinstance(value, str) and not re.fullmatch(
        r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)", value
    ):
        raise ValueError(f"not a fraction: {value!r}")
    return Fraction(value)


def alphabet_size(value: object, what: str) -> int:
    """The size of a finite alphabet: a positive int, and never a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer")
    return value


@dataclass(frozen=True, order=True)
class FiniteFunction:
    """A total function between 0-based finite index sets.

    `outputs[x]` is the image of input x. Equality and hashing follow the
    full (domain_size, codomain_size, outputs) triple, so the same table
    with a larger declared codomain is a different function. Ordering
    follows the same triple, so functions of one signature sort by table.
    """

    domain_size: int
    codomain_size: int
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))
        alphabet_size(self.domain_size, "domain size")
        alphabet_size(self.codomain_size, "codomain size")
        if len(self.outputs) != self.domain_size:
            raise ValueError(
                f"expected {self.domain_size} outputs, got {len(self.outputs)}"
            )
        for y in self.outputs:
            if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < self.codomain_size:
                raise ValueError(f"output {y!r} outside codomain of size {self.codomain_size}")

    def __call__(self, x: int) -> int:
        return self.outputs[x]

    def image(self) -> tuple[int, ...]:
        """Distinct outputs, ascending."""
        return tuple(sorted(set(self.outputs)))

    @classmethod
    def identity(cls, size: int) -> "FiniteFunction":
        return cls(size, size, tuple(range(size)))

    @classmethod
    def constant(cls, domain_size: int, codomain_size: int, value: int) -> "FiniteFunction":
        return cls(domain_size, codomain_size, (value,) * domain_size)


def compose_functions(outer: FiniteFunction, inner: FiniteFunction) -> FiniteFunction:
    """outer after inner; the shared middle alphabet must agree exactly."""
    if inner.codomain_size != outer.domain_size:
        raise SizeMismatch(
            f"cannot chain codomain {inner.codomain_size} into domain {outer.domain_size}"
        )
    return FiniteFunction(
        inner.domain_size,
        outer.codomain_size,
        tuple(outer.outputs[y] for y in inner.outputs),
    )


def image_size(f: FiniteFunction) -> int:
    return len(set(f.outputs))


def all_functions(domain_size: int, codomain_size: int) -> Iterator[FiniteFunction]:
    """Every function with the given signature, tables in lexicographic order."""
    for outputs in product(range(codomain_size), repeat=domain_size):
        yield FiniteFunction(domain_size, codomain_size, outputs)


def probability_vector(values: Iterable[WeightLike], what: str) -> tuple[Rational, ...]:
    """Coerce through `exact`; entries must be nonnegative and sum to exactly 1."""
    # A list first: `tuple()` of a generator guesses a length and resizes,
    # and the resized tuples pile up on CPython's per-length free lists.
    vector = tuple([exact(v) for v in values])
    for v in vector:
        if v < 0:
            raise ValueError(f"negative {what} {v}")
    # Summed as integers over one common denominator: as exact as adding the
    # Fractions, without a gcd per addition.
    den = lcm(*[v.denominator for v in vector])
    if sum(v.numerator * (den // v.denominator) for v in vector) != den:
        raise ValueError(f"{what}s must sum to exactly 1")
    return vector


@dataclass(frozen=True, order=True)
class ExtremalComb:
    """A deterministic (pre, post) pair: post after the resource after pre.

    In the probabilistic theory it is an extreme point of the free polytope;
    in the deterministic theory it witnesses one conversion. Combs of one
    signature sort by (pre table, post table).
    """

    pre: FiniteFunction
    post: FiniteFunction


SupportLike = Union[Mapping[Hashable, WeightLike], Iterable[tuple[Hashable, WeightLike]]]


class ExactDistribution:
    """Exact probability distribution over hashable outcomes.

    The raw weights must form a probability vector (`probability_vector`:
    exact, each nonnegative, summing to exactly one); then repeated outcomes
    add up and zero weights are dropped. There is no renormalization of
    approximate input. Instances are immutable, hashable and compare by
    value, only ever with instances of their own type. Subclasses say which
    outcomes they admit (`_check_outcomes`), which runs before any two
    outcomes are compared; `items()` then follows the outcomes' natural
    order.
    """

    __slots__ = ("_support", "_items")

    def __init__(self, support: SupportLike) -> None:
        pairs = list(support.items() if isinstance(support, Mapping) else support)
        acc: dict = {}
        for (outcome, _), w in zip(pairs, probability_vector((raw for _, raw in pairs), "weight")):
            # Only a repeat is added, so a first weight costs no addition.
            if outcome in acc:
                acc[outcome] += w
            else:
                acc[outcome] = w
        self._check_outcomes(acc)
        object.__setattr__(self, "_support", acc)
        object.__setattr__(
            self,
            "_items",
            tuple(sorted(((k, w) for k, w in acc.items() if w), key=lambda item: item[0])),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def support(self) -> dict:
        return dict(self._items)

    def items(self) -> tuple[tuple, ...]:
        """Support pairs in the natural order of the outcomes."""
        return self._items

    def weight(self, outcome: Hashable) -> Rational:
        return self._support.get(outcome, ZERO)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)


class FunctionDistribution(ExactDistribution):
    """Exact probability distribution over functions of one fixed signature.

    `items()` is sorted by output table. Every function carries the
    signature, so equal items mean equal distributions.
    """

    __slots__ = ("domain_size", "codomain_size")

    def __init__(self, domain_size: int, codomain_size: int, support: SupportLike) -> None:
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "codomain_size", codomain_size)
        super().__init__(support)

    def _check_outcomes(self, outcomes: Iterable) -> None:
        d, c = self.domain_size, self.codomain_size
        for f in outcomes:
            if not isinstance(f, FiniteFunction):
                raise TypeError(f"support keys must be functions, got {f!r}")
            if f.domain_size != d or f.codomain_size != c:
                raise SizeMismatch(
                    f"supported function {f.outputs} has signature "
                    f"{f.domain_size}->{f.codomain_size}, expected {d}->{c}"
                )

    @classmethod
    def point(cls, f: FiniteFunction) -> "FunctionDistribution":
        """The distribution concentrated on a single function."""
        return cls(f.domain_size, f.codomain_size, {f: ONE})

    def functions(self) -> tuple[FiniteFunction, ...]:
        return tuple(f for f, _ in self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.outputs}: {w}" for f, w in self._items)
        return (
            f"FunctionDistribution({self.domain_size}->{self.codomain_size}, "
            f"{{{inner}}})"
        )


@dataclass(frozen=True)
class StochasticMap:
    """Column-stochastic matrix of exact conditionals; entries[y][x]."""

    input_size: int
    output_size: int
    entries: tuple[tuple[Rational, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        alphabet_size(self.input_size, "input size")
        alphabet_size(self.output_size, "output size")
        if len(rows) != self.output_size or any(len(r) != self.input_size for r in rows):
            raise ValueError("entry matrix shape must be output_size x input_size")
        columns = [
            probability_vector(col, f"column {x} weight") for x, col in enumerate(zip(*rows))
        ]
        object.__setattr__(self, "entries", tuple(zip(*columns)))


def compose_distributions(
    outer: FunctionDistribution, inner: FunctionDistribution
) -> FunctionDistribution:
    """Distribution of (outer sample) after (inner sample), drawn independently.

    Mismatched sizes raise `SizeMismatch` from `compose_functions` on the
    first pair.
    """
    return FunctionDistribution(
        inner.domain_size,
        outer.codomain_size,
        (
            (compose_functions(f, g), wf * wg)
            for f, wf in outer.items()
            for g, wg in inner.items()
        ),
    )


def to_stochastic(P: FunctionDistribution) -> StochasticMap:
    """Forget which function acted: collapse P to its conditional distribution."""
    rows = [[ZERO] * P.domain_size for _ in range(P.codomain_size)]
    for f, w in P.items():
        for x in range(P.domain_size):
            rows[f(x)][x] += w
    return StochasticMap(
        P.domain_size, P.codomain_size, tuple(tuple(row) for row in rows)
    )


def canonical_preimage(S: StochasticMap) -> FunctionDistribution:
    """The product distribution over functions inducing S.

    Outputs are drawn independently per input column, so the weight of f is
    the product of S(f(x)|x) over x. This is a section of `to_stochastic`:
    the round trip reproduces S exactly, which also shows every stochastic
    map arises from some distribution over functions. Only tables whose
    every entry has positive weight are formed, so no zero weight arises.
    """
    columns = [
        [(y, S.entries[y][x]) for y in range(S.output_size) if S.entries[y][x]]
        for x in range(S.input_size)
    ]
    return FunctionDistribution(
        S.input_size,
        S.output_size,
        (
            (
                FiniteFunction(S.input_size, S.output_size, tuple(y for y, _ in picks)),
                prod(w for _, w in picks),
            )
            for picks in product(*columns)
        ),
    )
