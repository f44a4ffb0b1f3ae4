"""Brute-force reference computations, independent of the package under test.

Functions live here as bare output tuples and distributions as plain dicts,
so nothing in this file can accidentally share a code path with the library.
Two exceptions check one layer of the library against another of its own:
the comb-by-comb image reference runs the library's `apply_extremal` over
`enumerate_extremal_combs`, the object route that the integer-coded image
kernel replaced, and the per-candidate closure runs the library's image
kernel and hull LP once per candidate, the route that deciding one
candidate per relabelling orbit replaced. The full-axis hull reference
solves its LPs with `fraction_tableau_weights`, a frozen copy of the
library's earlier `Fraction` simplex, so it shares no code with the solver
under test.
The unit tests import the searchers directly; the frozen constants in the
test modules were produced by running this file as a script:

    python tests/oracles.py
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

F = Fraction

# The four bit-to-bit output tables, in the fixed order used throughout.
IDENT = (0, 1)
FLIP = (1, 0)
RESET0 = (0, 0)
RESET1 = (1, 1)
BIT_FUNCS = (IDENT, FLIP, RESET0, RESET1)


def all_tables(dom: int, cod: int) -> list[tuple[int, ...]]:
    return [tuple(t) for t in product(range(cod), repeat=dom)]


def compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[y] for y in inner)


def image_size(table: tuple[int, ...]) -> int:
    return len(set(table))


def witness_search(f, f_cod, g, g_cod, f_dom=None, g_dom=None):
    """Exhaustive scan over every (pre, post) table pair; None if no pair works.

    This is the independent route for the conversion order on deterministic
    functions. It never consults image sizes.
    """
    f_dom = len(f) if f_dom is None else f_dom
    g_dom = len(g) if g_dom is None else g_dom
    for pre in all_tables(g_dom, f_dom):
        mid = compose(f, pre)
        for post in all_tables(f_cod, g_cod):
            if compose(post, mid) == g:
                return pre, post
    return None


def expected_witness(f, f_cod, g):
    """The (pre, post) tables that the witness rule for f -> g documents.

    With both images sorted, pre sends x to the smallest input that f maps
    onto the output of f ranked like g(x) in the image of g. post sends the
    k-th output of f to the k-th output of g while g has one, and every
    other letter to the smallest output of g.
    """
    f_image = sorted(set(f))
    g_image = sorted(set(g))
    pre = tuple(
        min(x for x, out in enumerate(f) if out == f_image[g_image.index(z)]) for z in g
    )
    post = []
    for y in range(f_cod):
        if y in f_image and f_image.index(y) < len(g_image):
            post.append(g_image[f_image.index(y)])
        else:
            post.append(g_image[0])
    return pre, tuple(post)


def pushforward(dist: dict, pre, post) -> dict:
    out: dict = {}
    for table, w in dist.items():
        h = compose(post, compose(table, pre))
        out[h] = out.get(h, F(0)) + w
    return out


def mix(parts: list[tuple[Fraction, dict]]) -> dict:
    out: dict = {}
    for w, dist in parts:
        for table, p in dist.items():
            out[table] = out.get(table, F(0)) + w * p
    return {t: p for t, p in out.items() if p}


def channel(dist: dict, dom: int, cod: int) -> list[list[Fraction]]:
    """entries[y][x] built by direct accumulation."""
    rows = [[F(0)] * dom for _ in range(cod)]
    for table, w in dist.items():
        for x in range(dom):
            rows[table[x]][x] += w
    return rows


def product_preimage(rows: list[list[Fraction]]) -> dict:
    cod = len(rows)
    dom = len(rows[0])
    out = {}
    for table in all_tables(dom, cod):
        w = F(1)
        for x in range(dom):
            w *= rows[table[x]][x]
        if w:
            out[table] = w
    return out


def bit_params(dist: dict):
    """Solve the four weights for (alpha, beta, gamma); None marks undefined."""
    wi = dist.get(IDENT, F(0))
    wf = dist.get(FLIP, F(0))
    w0 = dist.get(RESET0, F(0))
    w1 = dist.get(RESET1, F(0))
    beta = wi + wf
    alpha = (wf - wi) / beta if beta else None
    gamma = (w1 - w0) / (1 - beta) if beta != 1 else None
    return alpha, beta, gamma


def bit_weights(alpha, beta, gamma) -> dict:
    a = alpha if alpha is not None else F(0)
    g = gamma if gamma is not None else F(0)
    dist = {
        IDENT: beta * (1 - a) / 2,
        FLIP: beta * (1 + a) / 2,
        RESET0: (1 - beta) * (1 - g) / 2,
        RESET1: (1 - beta) * (1 + g) / 2,
    }
    return {t: w for t, w in dist.items() if w}


def monotone_triple(dist: dict):
    alpha, beta, gamma = bit_params(dist)
    m_beta = beta
    m_alpha = abs(alpha) if alpha is not None else None
    if beta == 0:
        m_gb = F(0)
    elif beta == 1:
        m_gb = F(1)
    else:
        m_gb = beta / (1 - abs(gamma) * (1 - beta))
    return m_beta, m_alpha, m_gb


def posterior_connected(dist: dict, y: int) -> Fraction:
    """Posterior weight on nonconstant tables given output y, uniform prior."""
    num = F(0)
    den = F(0)
    for table, w in dist.items():
        for x in range(len(table)):
            if table[x] == y:
                den += w * F(1, len(table))
                if image_size(table) > 1:
                    num += w * F(1, len(table))
    if den == 0:
        raise ZeroDivisionError("output never occurs")
    return num / den


def guessing(dist: dict, dom: int, cod: int) -> Fraction:
    rows = channel(dist, dom, cod)
    prior = F(1, dom)
    return sum(max(row[x] * prior for x in range(dom)) for row in rows)


def spectrum(dist: dict, cod: int) -> list[Fraction]:
    out = [F(0)] * cod
    for table, w in dist.items():
        out[image_size(table) - 1] += w
    return out


def distinct_images(dist: dict, dom: int, cod: int) -> list[dict]:
    """Images of a dom->cod resource under every (pre, post) table pair.

    Pairs run in lexicographic order of (pre, post) and each image is kept
    at its first occurrence.
    """
    images: list[dict] = []
    seen: set = set()
    for pre in all_tables(dom, dom):
        for post in all_tables(cod, cod):
            image = pushforward(dist, pre, post)
            key = frozenset(image.items())
            if key not in seen:
                seen.add(key)
                images.append(image)
    return images


def fraction_tableau_weights(points, target) -> list | None:
    """Convex weights of points reaching target by the Fraction simplex, or None.

    A frozen copy of the library's phase-1 simplex as it was before its
    tableau went fraction-free: every entry a `Fraction`, Bland's rule for
    entering and leaving, ties to the smallest basic index. The integer
    solver keeps the same pivot path, so tests require it to return the
    identical list, and the full-axis hull reference solves with this copy.
    """
    n = len(points)
    if n == 0:
        return None
    d = len(target)
    for p in points:
        if len(p) != d:
            raise ValueError("all points must have the dimension of the target")

    # Equality system: one row per coordinate plus the normalization row.
    rows = [[F(p[i]) for p in points] for i in range(d)]
    rhs = [F(t) for t in target]
    rows.append([F(1)] * n)
    rhs.append(F(1))
    m = d + 1

    # Flip rows with negative right-hand sides so the artificial start is
    # feasible for phase 1.
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]

    # Tableau: n structural columns, m artificial columns, rhs column.
    width = n + m + 1
    tableau = []
    for r in range(m):
        row = rows[r] + [F(0)] * m + [rhs[r]]
        row[n + r] = F(1)
        tableau.append(row)
    basis = [n + r for r in range(m)]

    # Cost row for minimizing the artificial total, rhs holds minus the
    # current objective value.
    cost = [-sum(tableau[r][j] for r in range(m)) for j in range(n)]
    cost += [F(0)] * m + [-sum(rhs)]
    tableau.append(cost)

    while True:
        enter = next((j for j in range(n) if tableau[m][j] < 0), None)
        if enter is None:
            break

        leave = None
        best = None
        for r in range(m):
            coef = tableau[r][enter]
            if coef > 0:
                ratio = tableau[r][width - 1] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave is None:
            raise RuntimeError("phase-1 objective cannot be unbounded")

        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for r in range(m + 1):
            if r != leave and tableau[r][enter] != 0:
                factor = tableau[r][enter]
                pivot_row = tableau[leave]
                tableau[r] = [v - factor * pv for v, pv in zip(tableau[r], pivot_row)]
        basis[leave] = enter

    if tableau[m][width - 1] != 0:
        return None

    weights = [F(0)] * n
    for r in range(m):
        if basis[r] < n:
            weights[basis[r]] = tableau[r][width - 1]
    return weights


def full_axis_weights(points: list[dict], target: dict, axis: list) -> list | None:
    """Convex weights of points reaching target, over one global axis of tables."""
    coords = [[p.get(t, F(0)) for t in axis] for p in points]
    return fraction_tableau_weights(coords, [target.get(t, F(0)) for t in axis])


def full_axis_convertible(src: dict, dst: dict, dom: int, cod: int) -> bool:
    """Hull membership of dst among all images of src, every point on the LP."""
    images = distinct_images(src, dom, cod)
    axis = sorted({t for image in images for t in image})
    return full_axis_weights(images, dst, axis) is not None


def full_axis_closure(dist: dict, dom: int, cod: int) -> list[dict]:
    """The images that are not in the hull of all the other images."""
    images = distinct_images(dist, dom, cod)
    axis = sorted({t for image in images for t in image})
    return [
        image
        for i, image in enumerate(images)
        if full_axis_weights(images[:i] + images[i + 1 :], image, axis) is None
    ]


def comb_by_comb_images(P, tgt_domain: int, tgt_codomain: int) -> list:
    """(image, first comb) for each distinct image of P, in comb order."""
    from causalres.rtknowcaus import apply_extremal, enumerate_extremal_combs

    images: list = []
    seen: set = set()
    for comb in enumerate_extremal_combs(
        P.domain_size, P.codomain_size, tgt_domain, tgt_codomain
    ):
        image = apply_extremal(comb, P)
        if image not in seen:
            seen.add(image)
            images.append((image, comb))
    return images


def per_candidate_closure(P) -> list:
    """Closure vertices of P by one hull test per distinct image, in image order.

    Each image's LP takes every other image supported inside its support,
    found by a scan over all images. It assumes nothing about relabelling,
    so it checks the library's orbit walk, and it is fast enough for
    four-letter alphabets, where `full_axis_closure` takes minutes.
    """
    from causalres.rtknowcaus import DEFAULT_COMB_BUDGET, _distinct_images, _hull_weights, _image

    dom, cod = P.domain_size, P.codomain_size
    den, images = _distinct_images(P, dom, cod, DEFAULT_COMB_BUDGET)
    keys = [key for key, _, _ in images]
    supports = [{t for t, _ in key} for key in keys]
    return [
        _image(dom, cod, den, key)
        for i, key in enumerate(keys)
        if _hull_weights(
            key,
            (other for j, other in enumerate(keys) if j != i and supports[j] <= supports[i]),
        )
        is None
    ]


# ---------------------------------------------------------------------------
# Named example resources (weights on IDENT, FLIP, RESET0, RESET1).

BITS = {
    "bit1": {IDENT: F(1, 2), FLIP: F(1, 2)},
    "bit2": {RESET0: F(1, 2), RESET1: F(1, 2)},
    "bit3": {IDENT: F(2, 3), FLIP: F(1, 3)},
    "bit4": {FLIP: F(1, 3), RESET0: F(2, 3)},
    "bit5": {FLIP: F(1, 3), RESET0: F(1, 3), RESET1: F(1, 3)},
    "bit6": {IDENT: F(1, 6), FLIP: F(1, 6), RESET0: F(2, 3)},
    "bit7": {IDENT: F(1, 6), FLIP: F(1, 6), RESET0: F(2, 9), RESET1: F(4, 9)},
    "bit8": {IDENT: F(1, 8), FLIP: F(1, 8), RESET0: F(1, 6), RESET1: F(7, 12)},
    "incomp_a": {IDENT: F(1, 2), FLIP: F(1, 2)},
    "incomp_b": {IDENT: F(1, 2), RESET0: F(1, 2)},
}

# The three-letter example: one third each on the identity and on two
# image-two tables.
TRIT_F1 = (0, 0, 1)
TRIT_F2 = (0, 0, 2)
TRIT_F3 = (0, 2, 2)
TRIT_MIX = {(0, 1, 2): F(1, 3), TRIT_F1: F(1, 3), TRIT_F2: F(1, 3)}


def fast_rule(src: dict, dst: dict) -> bool:
    mb_s, ma_s, mg_s = monotone_triple(src)
    mb_d, ma_d, mg_d = monotone_triple(dst)
    if mb_d == 0:
        return True
    if mb_s == 0:
        return False
    return mb_s >= mb_d and ma_s >= ma_d and mg_s >= mg_d


def hasse_edges(names: list[str]) -> list[tuple[str, str]]:
    """Cover relation of the strict order induced by the monotone rule."""
    wins = {
        (a, b)
        for a in names
        for b in names
        if a != b and fast_rule(BITS[a], BITS[b]) and not fast_rule(BITS[b], BITS[a])
    }
    return sorted(
        (a, b)
        for (a, b) in wins
        if not any((a, c) in wins and (c, b) in wins for c in names)
    )


def main() -> None:
    show = lambda tag, val: print(f"{tag}: {val}")

    show("compose(f3, f2)", compose(TRIT_F3, TRIT_F2))
    half_if = {IDENT: F(1, 2), FLIP: F(1, 2)}
    show("(1/2 I + 1/2 F) after reset0 input", pushforward({RESET0: F(1)}, IDENT, IDENT) and mix([(F(1, 2), {compose(IDENT, RESET0): F(1)}), (F(1, 2), {compose(FLIP, RESET0): F(1)})]))
    rand_rows = [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]
    show("product preimage of randomizing channel", product_preimage(rand_rows))
    show("channel of bit4", channel(BITS["bit4"], 2, 2))
    show("product preimage of channel(bit4)", product_preimage(channel(BITS["bit4"], 2, 2)))

    for name in ("bit1", "bit2", "bit3", "bit4", "bit5", "bit6", "bit7", "bit8", "incomp_b"):
        show(f"params {name}", bit_params(BITS[name]))
    for name in ("bit1", "bit2", "bit3", "bit4", "bit5", "bit6"):
        show(f"triple {name}", monotone_triple(BITS[name]))

    mid = bit_weights(F(1, 2), F(1, 2), F(1, 2))
    rows_mid = [
        bit_weights(*params)
        for params in [
            (F(1, 2), F(1, 2), F(1, 2)),
            (None, F(0), F(-1)),
            (None, F(0), F(1)),
            (F(-1, 2), F(1, 2), F(1, 2)),
            (F(-1, 2), F(1, 2), F(-1, 2)),
            (F(1, 2), F(1, 2), F(-1, 2)),
        ]
    ]
    show("table rows at (1/2, 1/2, 1/2)", rows_mid)
    rows_b4 = [
        bit_weights(*params)
        for params in [
            (F(1), F(1, 3), F(-1)),
            (None, F(0), F(-1)),
            (None, F(0), F(1)),
            (F(-1), F(1, 3), F(-1)),
            (F(-1), F(1, 3), F(1)),
            (F(1), F(1, 3), F(1)),
        ]
    ]
    show("table rows at bit4", rows_b4)

    show("mixture (1/2 id,id + 1/2 flip,flip) on bit4",
         mix([(F(1, 2), pushforward(BITS["bit4"], IDENT, IDENT)),
              (F(1, 2), pushforward(BITS["bit4"], FLIP, FLIP))]))
    show("mixture (3/4 id,id + 1/4 id,reset1) on bit7",
         mix([(F(3, 4), pushforward(BITS["bit7"], IDENT, IDENT)),
              (F(1, 4), pushforward(BITS["bit7"], IDENT, RESET1))]))

    show("guessing bit4", guessing(BITS["bit4"], 2, 2))
    show("guessing bit5", guessing(BITS["bit5"], 2, 2))
    show("posterior bit4 y=1", posterior_connected(BITS["bit4"], 1))
    show("posterior bit5 y=1", posterior_connected(BITS["bit5"], 1))
    show("posterior bit4 y=0", posterior_connected(BITS["bit4"], 0))

    rows4 = channel(BITS["bit4"], 2, 2)
    show("ace of channel(bit4)", rows4[1][1] - rows4[1][0])

    show("spectrum trit_mix", spectrum(TRIT_MIX, 3))
    show("pushforward of trit_mix pre=f2 post=f3", pushforward(TRIT_MIX, TRIT_F2, TRIT_F3))

    show("hasse edges bit1..bit6", hasse_edges(["bit1", "bit2", "bit3", "bit4", "bit5", "bit6"]))

    show("witness search (ident, flip)", witness_search(IDENT, 2, FLIP, 2))
    show("witness search (reset0, ident)", witness_search(RESET0, 2, IDENT, 2))

    show("mono pair weights gamma_a", bit_weights(F(0), F(1, 2), F(3, 10)))
    show("mono pair weights gamma_b", bit_weights(F(0), F(1, 2), F(7, 10)))
    show("mono pair weights alpha_b", bit_weights(F(1, 2), F(1, 2), F(-3, 10)))
    show("mono pair weights beta_a", bit_weights(F(0), F(1, 2), F(0)))
    show("mono pair weights beta_b", bit_weights(F(0), F(1, 4), F(2, 3)))
    show("fast rule beta_a -> beta_b", fast_rule(bit_weights(F(0), F(1, 2), F(0)), bit_weights(F(0), F(1, 4), F(2, 3))))
    show("fast rule gamma_a -> gamma_b", fast_rule(bit_weights(F(0), F(1, 2), F(3, 10)), bit_weights(F(0), F(1, 2), F(7, 10))))
    show("triple bit7", monotone_triple(BITS["bit7"]))
    show("triple bit8", monotone_triple(BITS["bit8"]))


if __name__ == "__main__":
    main()
