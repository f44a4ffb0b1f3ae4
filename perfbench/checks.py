"""Checks of CLI answers, computed apart from the program.

Nothing here imports `causalres`. Functions are bare output tables, a
resource is `(domain, codomain, {table: Fraction})`, and every expected value
is derived from the inputs: the bit monotones and Table-1 rows from the four
weights, certificates by composing tables, closure vertices against an
enumeration of every (pre, post) pair made here. No check compares against
a stored copy of earlier output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from typing import Optional

F = Fraction
ZERO = F(0)
ONE = F(1)

IDENT = (0, 1)
FLIP = (1, 0)
RESET0 = (0, 0)
RESET1 = (1, 1)

Table = tuple[int, ...]
Dist = dict[Table, Fraction]
Resource = tuple[int, int, Dist]


class CheckFailed(AssertionError):
    """A CLI answer disagrees with the computation made here."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Tables and distributions


def tables(dom: int, cod: int) -> list[Table]:
    return [tuple(t) for t in product(range(cod), repeat=dom)]


def image_size(table: Table) -> int:
    return len(set(table))


def push(dist: Dist, pre: Table, post: Table) -> Dist:
    """Image of a distribution under f -> post . f . pre."""
    out: Dist = {}
    for table, w in dist.items():
        h = tuple(post[table[x]] for x in pre)
        out[h] = out.get(h, ZERO) + w
    return out


def mix(parts: list[tuple[Fraction, Dist]]) -> Dist:
    out: Dist = {}
    for w, dist in parts:
        for table, p in dist.items():
            out[table] = out.get(table, ZERO) + w * p
    return {t: p for t, p in out.items() if p}


def tail(dist: Dist, k: int) -> Fraction:
    """Weight on functions of image size at least k."""
    return sum((w for t, w in dist.items() if image_size(t) >= k), start=ZERO)


def images(res: Resource) -> set[frozenset]:
    """Every image of a resource under a (pre, post) pair of its own signature."""
    dom, cod, dist = res
    return {
        frozenset(push(dist, pre, post).items())
        for pre in tables(dom, dom)
        for post in tables(cod, cod)
    }


def relabel(dist: Dist, sigma: Table, tau: Table) -> Dist:
    """Rename inputs by sigma and outputs by tau: f -> tau . f . sigma^-1."""
    out: Dist = {}
    for table, w in dist.items():
        new = [0] * len(table)
        for x, y in enumerate(table):
            new[sigma[x]] = tau[y]
        out[tuple(new)] = out.get(tuple(new), ZERO) + w
    return out


def resource_text(name: str, res: Resource) -> str:
    """The CLI's line-delimited resource format."""
    dom, cod, dist = res
    lines = [json.dumps({"name": name, "domain": dom, "codomain": cod}, sort_keys=True)]
    for table in sorted(dist):
        lines.append(json.dumps({"map": list(table), "prob": str(dist[table])}, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reading CLI output


def json_lines(stdout: str, count: int) -> list[dict]:
    lines = stdout.splitlines()
    require(len(lines) == count, f"expected {count} report lines, got {len(lines)}")
    try:
        return [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None


def frac(text: object) -> Fraction:
    require(isinstance(text, str), f"expected a fraction string, got {text!r}")
    try:
        return F(text)  # type: ignore[arg-type]
    except (ValueError, ZeroDivisionError):
        raise CheckFailed(f"cannot parse fraction {text!r}") from None


def support(entries: object, dom: int, cod: int) -> Dist:
    """A reported support list as a distribution, validated."""
    require(isinstance(entries, list) and entries, f"empty or malformed support {entries!r}")
    out: Dist = {}
    for entry in entries:  # type: ignore[union-attr]
        table = tuple(entry["map"])
        require(len(table) == dom and all(0 <= y < cod for y in table), f"bad map {table}")
        require(table not in out, f"map {table} listed twice")
        w = frac(entry["prob"])
        require(w > 0, f"nonpositive weight {w}")
        out[table] = w
    require(sum(out.values(), start=ZERO) == ONE, "support weights do not sum to 1")
    return out


# ---------------------------------------------------------------------------
# Convertibility


def check_certificate(cert: object, src: Resource, dst: Resource) -> None:
    """The reported mixture of (pre, post) pairs must map src exactly onto dst."""
    s_dom, s_cod, s_dist = src
    t_dom, t_cod, t_dist = dst
    require(isinstance(cert, list) and cert, "positive verdict without a certificate")
    parts = []
    for entry in cert:  # type: ignore[union-attr]
        pre, post = tuple(entry["pre"]), tuple(entry["post"])
        require(len(pre) == t_dom and all(0 <= x < s_dom for x in pre), f"bad pre {pre}")
        require(len(post) == s_cod and all(0 <= y < t_cod for y in post), f"bad post {post}")
        w = frac(entry["weight"])
        require(w > 0, f"nonpositive certificate weight {w}")
        parts.append((w, push(s_dist, pre, post)))
    require(sum((w for w, _ in parts), start=ZERO) == ONE, "certificate weights do not sum to 1")
    require(mix(parts) == {t: w for t, w in t_dist.items() if w}, "certificate misses the target")


def check_convert(stdout: str, a: Resource, b: Resource, expect: tuple[bool, bool]) -> None:
    """`convert a b` reports a->b then b->a; verdicts must match `expect`."""
    rows = json_lines(stdout, 2)
    for row, (src_name, dst_name, src, dst), want in zip(
        rows, (("a", "b", a, b), ("b", "a", b, a)), expect
    ):
        require(
            (row.get("source"), row.get("target")) == (src_name, dst_name),
            f"unexpected direction {row.get('source')}->{row.get('target')}",
        )
        require(
            row.get("convertible") is want,
            f"{src_name}->{dst_name}: verdict {row.get('convertible')}, expected {want}",
        )
        if want:
            check_certificate(row.get("certificate"), src, dst)
        else:
            require(row.get("certificate") is None, "negative verdict carries a certificate")


# ---------------------------------------------------------------------------
# Bits: the three monotones and Table 1


def bit_weights(dist: Dist) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return (
        dist.get(IDENT, ZERO),
        dist.get(FLIP, ZERO),
        dist.get(RESET0, ZERO),
        dist.get(RESET1, ZERO),
    )


def bit_triple(dist: Dist) -> tuple[Fraction, Optional[Fraction], Fraction]:
    """(beta, |alpha|, m) from the four weights; |alpha| is None when beta = 0.

    m = beta / (1 - |gamma| (1 - beta)), and |gamma| (1 - beta) = |w1 - w0|,
    so m needs no gamma; beta = 0 gives m = 0 and beta = 1 gives m = 1.
    """
    w_i, w_f, w_0, w_1 = bit_weights(dist)
    beta = w_i + w_f
    if beta == 0:
        return ZERO, None, ZERO
    return beta, abs(w_f - w_i) / beta, beta / (ONE - abs(w_1 - w_0))


def bit_reaches(p: Dist, q: Dist) -> bool:
    """The three-monotone rule: no monotone may increase; free targets are free."""
    bp, ap, mp = bit_triple(p)
    bq, aq, mq = bit_triple(q)
    if bq == 0:
        return True
    if bp == 0:
        return False
    return bp >= bq and ap >= aq and mp >= mq  # type: ignore[operator]


def bit_row(alpha: Fraction, beta: Fraction, gamma: Fraction) -> Dist:
    half = F(1, 2)
    row = {
        IDENT: beta * (ONE - alpha) * half,
        FLIP: beta * (ONE + alpha) * half,
        RESET0: (ONE - beta) * (ONE - gamma) * half,
        RESET1: (ONE - beta) * (ONE + gamma) * half,
    }
    return {t: w for t, w in row.items() if w}


def table1_rows(dist: Dist) -> set[frozenset]:
    """The paper's Table-1 vertex list of the downward closure, deduplicated.

    The rows are P, the two resets and the sign flips of alpha and gamma.
    All distinct rows are vertices: the non-reset rows share beta and sit at
    the corners of a rectangle in (alpha, gamma), and the resets are the only
    points with beta = 0.
    """
    w_i, w_f, w_0, w_1 = bit_weights(dist)
    beta = w_i + w_f
    rows = {frozenset({RESET0: ONE}.items()), frozenset({RESET1: ONE}.items())}
    if beta > 0:
        alpha = (w_f - w_i) / beta
        gamma = (w_1 - w_0) / (ONE - beta) if beta < 1 else ZERO
        for a, g in ((alpha, gamma), (-alpha, gamma), (-alpha, -gamma), (alpha, -gamma)):
            rows.add(frozenset(bit_row(a, beta, g).items()))
    return rows


def check_bit_closure(stdout: str, name: str, dist: Dist) -> None:
    (row,) = json_lines(stdout, 1)
    require(row.get("name") == name, f"closure of {row.get('name')}, expected {name}")
    vertices = [frozenset(support(v, 2, 2).items()) for v in row.get("vertices") or []]
    require(row.get("vertex_count") == len(vertices), "vertex_count disagrees with the list")
    require(len(set(vertices)) == len(vertices), "a vertex is listed twice")
    rows = table1_rows(dist)
    require(set(vertices) <= rows, f"{name}: a vertex is not a Table-1 row")
    for reset in (RESET0, RESET1):
        require(frozenset({reset: ONE}.items()) in vertices, f"{name}: reset {reset} missing")
    require(set(vertices) == rows, f"{name}: {len(rows)} Table-1 rows, {len(vertices)} vertices")


def check_bit_hasse(stdout: str, named: dict[str, Dist]) -> None:
    """Classes and cover edges of the order the three-monotone rule defines."""
    (row,) = json_lines(stdout, 1)
    names = list(named)
    reach = {(a, b): bit_reaches(named[a], named[b]) for a in names for b in names}
    classes: list[frozenset] = []
    for a in names:
        for i, cls in enumerate(classes):
            rep = next(iter(cls))
            if reach[a, rep] and reach[rep, a]:
                classes[i] = cls | {a}
                break
        else:
            classes.append(frozenset({a}))

    def above(x: frozenset, y: frozenset) -> bool:
        return x != y and reach[next(iter(x)), next(iter(y))]

    edges = {
        (x, y)
        for x in classes
        for y in classes
        if above(x, y) and not any(above(x, z) and above(z, y) for z in classes)
    }
    got_classes = [frozenset(members) for members in row.get("classes") or []]
    require(set(got_classes) == set(classes), "Hasse classes disagree with the monotone order")
    require(len(got_classes) == len(classes), "a Hasse class is listed twice")
    got_edges = {(got_classes[u], got_classes[l]) for u, l in row.get("edges") or []}
    require(got_edges == edges, "Hasse edges are not the cover relation of the monotone order")
    require(len(got_edges) == len(row.get("edges") or []), "a Hasse edge is listed twice")


def check_bit_monotones(stdout: str, name: str, dist: Dist) -> None:
    (row,) = json_lines(stdout, 1)
    w_i, w_f, w_0, w_1 = bit_weights(dist)
    beta, abs_alpha, m = bit_triple(dist)
    require(row.get("name") == name, "wrong resource name")
    require([frac(v) for v in row.get("beta_spectrum", [])] == [w_0 + w_1, beta], "beta spectrum")
    require([frac(v) for v in row.get("cumulative", [])] == [beta, ONE], "cumulative monotones")
    require(frac(row.get("m_beta")) == beta, "m_beta")
    got_alpha = row.get("m_abs_alpha")
    require(
        (got_alpha is None) if abs_alpha is None else frac(got_alpha) == abs_alpha, "m_abs_alpha"
    )
    require(frac(row.get("m_gamma_beta")) == m, "m_gamma_beta")


def check_bit_game(stdout: str, name: str, dist: Dist) -> None:
    """Uniform-prior guessing and the posterior of connection after each output."""
    (row,) = json_lines(stdout, 1)
    w_i, w_f, w_0, w_1 = bit_weights(dist)
    beta = w_i + w_f
    require(row.get("name") == name, "wrong resource name")
    guess = (w_0 + w_1) / 2 + max(w_i, w_f)
    require(frac(row.get("guessing_probability")) == guess, "guessing probability")
    posteriors = {}
    for y, w_y in (("0", w_0), ("1", w_1)):
        posteriors[y] = beta / (beta + 2 * w_y) if beta / 2 + w_y > 0 else None
    got = row.get("posterior_connection") or {}
    require(set(got) == {"0", "1"}, "posterior outputs")
    for y, want in posteriors.items():
        require((got[y] is None) if want is None else frac(got[y]) == want, f"posterior {y}")
    best = max(v for v in posteriors.values() if v is not None)
    require(frac(row.get("max_postselected")) == best, "max postselected connection")
    require(best == bit_triple(dist)[2], "max postselected connection is not m")


def check_bit_ace(stdout: str, name: str, dist: Dist) -> None:
    (row,) = json_lines(stdout, 1)
    w_i, w_f, w_0, w_1 = bit_weights(dist)
    require(row.get("name") == name, "wrong resource name")
    require(frac(row.get("ace")) == w_i - w_f, "ace")
    require(frac(row.get("ace_dist")) == w_i - w_f, "ace_dist")
    require(frac(row.get("min_beta")) == abs(w_i - w_f), "min_beta")
    # Resources inducing the same channel differ by sliding weight between the
    # balanced identity/flip pair and the balanced resets; the least connected
    # one slides by min(w_i, w_f).
    s = min(w_i, w_f)
    witness = {IDENT: w_i - s, FLIP: w_f - s, RESET0: w_0 + s, RESET1: w_1 + s}
    want = {t: w for t, w in witness.items() if w}
    require(support(row.get("min_beta_witness"), 2, 2) == want, "min_beta witness")


# ---------------------------------------------------------------------------
# Closures beyond bits


def check_closure(stdout: str, named: list[tuple[str, Resource]]) -> None:
    """Vertices are images of P, point-mass images are vertices, and every
    resource in one question (relabellings of each other) has one vertex set."""
    rows = json_lines(stdout, len(named))
    vertex_sets = []
    for row, (name, res) in zip(rows, named):
        dom, cod, _ = res
        require(row.get("name") == name, f"closure of {row.get('name')}, expected {name}")
        vertices = [frozenset(support(v, dom, cod).items()) for v in row.get("vertices") or []]
        require(row.get("vertex_count") == len(vertices), "vertex_count disagrees with the list")
        require(len(set(vertices)) == len(vertices), "a vertex is listed twice")
        reach = images(res)
        require(set(vertices) <= reach, f"{name}: a vertex is not an image of P")
        points = {im for im in reach if len(im) == 1}
        require(points <= set(vertices), f"{name}: a point-mass image is not a vertex")
        vertex_sets.append(set(vertices))
    for other in vertex_sets[1:]:
        require(other == vertex_sets[0], "relabelling changed the vertex set")
