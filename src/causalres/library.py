"""Built-in example resources, addressable by name from the command line.

The numbered bit resources are the running examples exercised throughout
the test suite; `incomp_a`/`incomp_b` are a pair that cannot reach each
other in either direction; the three `mono_*` pairs each witness that one
of the three bit monotones cannot be dropped (the `a` resource fails to
reach the `b` resource only because of the named monotone); `trit_mix` is
a three-letter resource whose image-size spectrum is not concentrated.
"""

from __future__ import annotations

from fractions import Fraction

from .bit2bit import FLIP, IDENT, RESET0, RESET1, bit_resource
from .core import FiniteFunction, FunctionDistribution

F = Fraction

TRIT_IDENT = FiniteFunction.identity(3)
TRIT_LOW = FiniteFunction(3, 3, (0, 0, 1))
TRIT_MID = FiniteFunction(3, 3, (0, 0, 2))

BUILTIN: dict[str, FunctionDistribution] = {
    "bit1": FunctionDistribution(2, 2, {IDENT: F(1, 2), FLIP: F(1, 2)}),
    "bit2": FunctionDistribution(2, 2, {RESET0: F(1, 2), RESET1: F(1, 2)}),
    "bit3": FunctionDistribution(2, 2, {IDENT: F(2, 3), FLIP: F(1, 3)}),
    "bit4": FunctionDistribution(2, 2, {FLIP: F(1, 3), RESET0: F(2, 3)}),
    "bit5": FunctionDistribution(
        2, 2, {FLIP: F(1, 3), RESET0: F(1, 3), RESET1: F(1, 3)}
    ),
    "bit6": FunctionDistribution(
        2, 2, {IDENT: F(1, 6), FLIP: F(1, 6), RESET0: F(2, 3)}
    ),
    "bit7": FunctionDistribution(
        2, 2, {IDENT: F(1, 6), FLIP: F(1, 6), RESET0: F(2, 9), RESET1: F(4, 9)}
    ),
    "bit8": FunctionDistribution(
        2, 2, {IDENT: F(1, 8), FLIP: F(1, 8), RESET0: F(1, 6), RESET1: F(7, 12)}
    ),
    "incomp_a": FunctionDistribution(2, 2, {IDENT: F(1, 2), FLIP: F(1, 2)}),
    "incomp_b": FunctionDistribution(2, 2, {IDENT: F(1, 2), RESET0: F(1, 2)}),
    "mono_beta_a": bit_resource(F(0), F(1, 2), F(0)),
    "mono_beta_b": bit_resource(F(0), F(1, 4), F(2, 3)),
    "mono_alpha_a": bit_resource(F(0), F(1, 2), F(3, 10)),
    "mono_alpha_b": bit_resource(F(1, 2), F(1, 2), F(-3, 10)),
    "mono_gamma_a": bit_resource(F(0), F(1, 2), F(3, 10)),
    "mono_gamma_b": bit_resource(F(0), F(1, 2), F(7, 10)),
    "trit_mix": FunctionDistribution(
        3, 3, {TRIT_IDENT: F(1, 3), TRIT_LOW: F(1, 3), TRIT_MID: F(1, 3)}
    ),
}
