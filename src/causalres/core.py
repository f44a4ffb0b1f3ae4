"""Exact primitives shared by both resource theories.

A function between finite index sets is stored as its output table, a
resource is an exact probability distribution over such functions, a free
operation is built from deterministic (pre, post) pairs, and the bridge to
conditional distributions is the pair `to_stochastic` / `canonical_preimage`.
Every weight is a `fractions.Fraction`; floats are rejected at construction
because a verdict that sits on a polytope facet cannot survive rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Hashable, Iterable, Iterator, Mapping, Union

from .errors import SizeMismatch

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

WeightLike = Union[Rational, int, str]


def exact(value: WeightLike) -> Rational:
    """Coerce to Fraction, refusing floats (they already lost exactness)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float weight {value!r}")
    return Fraction(value)


@dataclass(frozen=True)
class FiniteFunction:
    """A total function between 0-based finite index sets.

    `outputs[x]` is the image of input x. Equality and hashing follow the
    full (domain_size, codomain_size, outputs) triple, so the same table
    with a larger declared codomain is a different function.
    """

    domain_size: int
    codomain_size: int
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.domain_size < 1 or self.codomain_size < 1:
            raise ValueError("domain and codomain must be nonempty")
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
    vector = tuple(exact(v) for v in values)
    for v in vector:
        if v < 0:
            raise ValueError(f"negative {what} {v}")
    if sum(vector, start=ZERO) != ONE:
        raise ValueError(f"{what}s must sum to exactly 1")
    return vector


@dataclass(frozen=True)
class ExtremalComb:
    """A deterministic (pre, post) pair: post after the resource after pre.

    In the probabilistic theory it is an extreme point of the free polytope;
    in the deterministic theory it witnesses one conversion.
    """

    pre: FiniteFunction
    post: FiniteFunction


SupportLike = Union[Mapping[Hashable, WeightLike], Iterable[tuple[Hashable, WeightLike]]]


class ExactDistribution:
    """Exact probability distribution over hashable outcomes.

    Weights go through `exact`, repeated outcomes add up, zero weights are
    dropped and the rest must sum to exactly one; there is no
    renormalization of approximate input. Instances are immutable, hashable
    and compare by value, only ever with instances of their own type.
    Subclasses say which outcomes they admit (`_check_outcomes`) and how
    `items()` is ordered (`_sort_key`).
    """

    __slots__ = ("_support", "_items")

    def __init__(self, support: SupportLike) -> None:
        pairs = support.items() if isinstance(support, Mapping) else support
        acc: dict = {}
        for outcome, raw in pairs:
            w = exact(raw)
            if w < 0:
                raise ValueError(f"negative weight {w} on {outcome!r}")
            acc[outcome] = acc.get(outcome, ZERO) + w
        self._check_outcomes(acc)
        if sum(acc.values(), start=ZERO) != ONE:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "_support", acc)
        object.__setattr__(
            self,
            "_items",
            tuple(sorted(((k, w) for k, w in acc.items() if w), key=self._sort_key)),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def support(self) -> dict:
        return dict(self._items)

    def items(self) -> tuple[tuple, ...]:
        """Support pairs in the subclass's order."""
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

    @staticmethod
    def _sort_key(item: tuple) -> object:
        return item[0].outputs

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
        if self.input_size < 1 or self.output_size < 1:
            raise ValueError("alphabets must be nonempty")
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
    acc: dict[FiniteFunction, Rational] = {}
    for f, wf in outer.items():
        for g, wg in inner.items():
            h = compose_functions(f, g)
            acc[h] = acc.get(h, ZERO) + wf * wg
    return FunctionDistribution(inner.domain_size, outer.codomain_size, acc)


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
    map arises from some distribution over functions.
    """
    acc: dict[FiniteFunction, Rational] = {}
    for f in all_functions(S.input_size, S.output_size):
        w = ONE
        for x in range(S.input_size):
            w *= S.entries[f(x)][x]
            if w == ZERO:
                break
        if w > 0:
            acc[f] = w
    return FunctionDistribution(S.input_size, S.output_size, acc)
