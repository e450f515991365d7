"""Named fixture distributions and causal structures.

Bipartite boxes are kernels q(A, B | X, Y) over binary variables: the eight
PR boxes q = 1/2 [A + B = XY + alpha*X + beta*Y + gamma (mod 2)], and the
sixteen local deterministic boxes, products of single-party response
functions.  Together these 24 boxes are the vertices of the bipartite
no-signalling polytope.

Also included: the tripartite guess-your-neighbour's-input box, its
post-selected single-input family, the nonlocality-swapping box, and the
standard test graphs (CHSH, instrumental, mediation, GYNI, swapping,
triangle), and the Bell scorers: CHSH, GYNI and the instrumental functional.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import _EXPORTS
from .graphs import LATENT, OBSERVED, CausalDag
from .tables import CardinalityMismatchError, Kernel, _numerators

__all__ = _EXPORTS["boxes"]

_BIT = (0, 1)

#: the four single-party deterministic responses by name, in canonical order
_RESPONSES = {
    "const0": lambda x: 0,
    "const1": lambda x: 1,
    "id": lambda x: x,
    "not": lambda x: 1 - x,
}

# the outcome and input variables of the CHSH boxes and of the GYNI box; the
# projected GYNI and the swapping families share the GYNI box's outcomes
_CHSH_OUTCOMES = (("A", 2), ("B", 2))
_CHSH_INPUTS = (("X", 2), ("Y", 2))
_GYNI_OUTCOMES = (("A", 2), ("B", 2), ("C", 2))
_GYNI_INPUTS = (("X", 2), ("Y", 2), ("Z", 2))


# the parity xy + alpha x + beta y + gamma (mod 2) of each CHSH variant
# (alpha, beta, gamma) at (x, y) = (0, 0), (0, 1), (1, 0), (1, 1)
_CHSH_PARITIES = {
    v: [(x & y) ^ (v[0] & x) ^ (v[1] & y) ^ v[2] for x, y in product(_BIT, _BIT)]
    for v in product(_BIT, _BIT, _BIT)
}


@lru_cache(maxsize=None)
def pr_box(alpha: int = 0, beta: int = 0, gamma: int = 0) -> Kernel:
    """(alpha, beta, gamma)-PR box; (0, 0, 0) is the standard PR box."""
    parity = _CHSH_PARITIES.get((alpha, beta, gamma))
    if parity is None:
        raise IndexError("PR box parameters must be bits")

    def fn(v):
        target = parity[2 * v["X"] + v["Y"]]
        return Fraction(1, 2) if (v["A"] ^ v["B"]) == target else Fraction(0)

    return Kernel.from_function(_CHSH_OUTCOMES, _CHSH_INPUTS, fn)


def local_responses(i: int) -> tuple[str, str]:
    """Names of the two response functions encoded by a local-box index."""
    if not 0 <= i <= 15:
        raise IndexError("local box index must be in 0..15")
    names = list(_RESPONSES)
    return names[i // 4], names[i % 4]


@lru_cache(maxsize=None)
def local_box(i: int) -> Kernel:
    """Deterministic local box number ``i``.

    The index encodes i = 4 * f_a + f_b with both response functions drawn
    from (const0, const1, id, not) in that order.  No standard numbering of
    the sixteen boxes exists, so this encoding is the library's canonical
    convention (see also :func:`local_responses`).
    """
    f_a, f_b = (_RESPONSES[name] for name in local_responses(i))

    def fn(v):
        ok = v["A"] == f_a(v["X"]) and v["B"] == f_b(v["Y"])
        return Fraction(1) if ok else Fraction(0)

    return Kernel.from_function(_CHSH_OUTCOMES, _CHSH_INPUTS, fn)


def ns_box_vertices() -> list[Kernel]:
    """The 24 vertices of the bipartite no-signalling polytope:
    16 local boxes followed by the 8 PR boxes in lexicographic order, so
    PR(alpha, beta, gamma) sits at 16 + 4 alpha + 2 beta + gamma.

    :func:`local_box` and :func:`pr_box` build each box once and share it
    (kernels are immutable); every call returns a fresh list of them.
    """
    boxes = [local_box(i) for i in range(16)]
    return boxes + [pr_box(a, b, g) for a in _BIT for b in _BIT for g in _BIT]


def _gyni_indicator(a, b, c, x, y, z) -> int:
    t1 = (1 ^ b ^ x ^ y ^ (x & y)) & (1 ^ c ^ z)
    t2 = a & (1 ^ y ^ (c & y) ^ (b & (c ^ z)))
    return t1 ^ t2


def gyni_box() -> Kernel:
    """Tripartite no-signalling box winning guess-your-neighbour's-input.

    q(A, B, C | X, Y, Z) = 1/3 on a support of three outcome triples per
    input; the box is no-signalling but not quantum realizable.
    """

    def fn(v):
        return Fraction(
            _gyni_indicator(v["A"], v["B"], v["C"], v["X"], v["Y"], v["Z"]), 3
        )

    return Kernel.from_function(_GYNI_OUTCOMES, _GYNI_INPUTS, fn)


def gyni_projected() -> Kernel:
    """Family p(A, B, C | X) obtained from the GYNI box by substituting
    Y = A and Z = B: uniform 1/3 on {(0,0,0), (1,0,1), (1,1,0)} for X = 0 and
    on {(0,1,1), (1,0,1), (1,1,0)} for X = 1."""

    def fn(v):
        return Fraction(
            _gyni_indicator(v["A"], v["B"], v["C"], v["X"], v["A"], v["B"]), 3
        )

    return Kernel.from_function(_GYNI_OUTCOMES, (("X", 2),), fn)


def swapping_box() -> Kernel:
    """Nonlocality-swapping family p(A, B, C | X, Z) with p(B = 0) = 1/2.

    Given B = 0 the pair (A, C) is a standard PR box on the inputs (X, Z);
    given B = 1 it is the gamma-flipped PR box, so all bipartite marginals
    factorize and the family satisfies every independence constraint of the
    swapping structure while its b = 0 slice is PR-correlated.
    """

    def fn(v):
        target = (v["X"] & v["Z"]) ^ v["B"]
        ok = (v["A"] ^ v["C"]) == target
        return Fraction(1, 4) if ok else Fraction(0)

    return Kernel.from_function(_GYNI_OUTCOMES, (("X", 2), ("Z", 2)), fn)


def chsh_score(box: Kernel) -> Fraction:
    """Probability that A + B = X * Y (mod 2) under uniform inputs, with
    A, B the box's outcomes and X, Y its inputs, in their order."""
    if len(box.outcome_vars) != 2 or len(box.index_vars) != 2:
        raise ValueError("chsh_score expects a bipartite box")
    if any(card != 2 for _, card in box.variables):
        raise CardinalityMismatchError("chsh_score expects binary variables")
    num, den = _numerators(box, box.outcome_vars, box.index_vars)
    return Fraction(_chsh_scores(num)[0, 0, 0], 4 * den)


def _gyni_score(box: Kernel) -> Fraction:
    """Probability that every party outputs its neighbour's input under
    uniform inputs: the sum over x, y, z of q(a = y, b = z, c = x | x, y, z)
    / 8, for the binary box q(A, B, C | X, Y, Z) with its variables matched
    by name and side."""
    try:
        num, den = _numerators(box, _GYNI_OUTCOMES, _GYNI_INPUTS)
    except ValueError:
        raise ValueError("gyni score expects a binary box q(A, B, C | X, Y, Z)") from None
    # cell (a, b, c, x, y, z) sits at 32a + 16b + 8c + 4x + 2y + z
    won = (num[32 * y + 16 * z + 8 * x + 4 * x + 2 * y + z] for x, y, z in product(_BIT, repeat=3))
    return Fraction(sum(won), 8 * den)


def instrumental_score(k: Kernel) -> Fraction:
    """max over a of sum over b of max over x of p(a, b | x).

    The kernel must be p(A, B | X), with its variables matched by name in
    any layout.  At most one for post-selection members of the instrumental
    structure; deterministic signalling tables exceed it.
    """
    outcomes = sorted(n for n, _ in k.outcome_vars)
    if outcomes != ["A", "B"] or [n for n, _ in k.index_vars] != ["X"]:
        raise ValueError("instrumental score expects a kernel p(A, B | X)")
    card = dict(k.variables)
    num, den = _numerators(k, (("A", card["A"]), ("B", card["B"])), k.index_vars)
    # cell (a, b, x) sits at (a |B| + b) |X| + x, so tracked[a |B| + b] is
    # den times the max over x of p(a, b | x)
    tracked = [max(num[i : i + card["X"]]) for i in range(0, len(num), card["X"])]
    width = card["B"]
    return Fraction(max(sum(tracked[i : i + width]) for i in range(0, len(tracked), width)), den)


def _chsh_scores(num: list[int]) -> dict[tuple[int, int, int], int]:
    """``den * S`` on each (alpha, beta, gamma) variant of CHSH, keyed in
    lexicographic order, for the binary box q(A, B | X, Y) = ``num / den``
    laid out in that order: S = sum over x, y of
    q(a + b = xy + alpha x + beta y + gamma | x, y), with sums mod 2."""
    # cell (a, b, x, y) sits at 8a + 4b + 2x + y, so
    # by_parity[t][2x + y] = den * q(a + b = t | x, y)
    by_parity = (
        [num[xy] + num[12 + xy] for xy in range(4)],
        [num[4 + xy] + num[8 + xy] for xy in range(4)],
    )
    return {
        variant: by_parity[t0][0] + by_parity[t1][1] + by_parity[t2][2] + by_parity[t3][3]
        for variant, (t0, t1, t2, t3) in _CHSH_PARITIES.items()
    }


# -- named graphs ----------------------------------------------------------


def _binary_dag(latents: tuple[str, ...], edges: list[tuple[str, str]]) -> CausalDag:
    """``edges`` with every endpoint not in ``latents`` an observed binary
    vertex; observed vertices come first, sorted, then ``latents`` in order."""
    observed = sorted({v for edge in edges for v in edge} - set(latents))
    return CausalDag([(v, OBSERVED, 2) for v in observed] + [(v, LATENT) for v in latents], edges)


def chsh_graph() -> CausalDag:
    """Bipartite Bell structure: X -> A <- Lambda -> B <- Y."""
    return _binary_dag(("Lambda",), [("X", "A"), ("Y", "B"), ("Lambda", "A"), ("Lambda", "B")])


def instrumental_graph() -> CausalDag:
    """Instrumental structure: X -> A -> B with Lambda -> A, Lambda -> B."""
    return _binary_dag(("Lambda",), [("X", "A"), ("A", "B"), ("Lambda", "A"), ("Lambda", "B")])


def mediation_graph() -> CausalDag:
    """Mediation structure X -> A -> B -> C with Lambda -> A, Lambda -> C,
    the smallest graph with a Verma constraint."""
    return _binary_dag(
        ("Lambda",),
        [("X", "A"), ("A", "B"), ("B", "C"), ("Lambda", "A"), ("Lambda", "C")],
    )


def gyni_graph() -> CausalDag:
    """Four observed vertices, one latent: X -> A -> B -> C with Lambda
    parenting A, B and C.  Its hypergraph is the tripartite Bell structure."""
    return _binary_dag(
        ("Lambda",),
        [("X", "A"), ("A", "B"), ("B", "C"), ("Lambda", "A"), ("Lambda", "B"), ("Lambda", "C")],
    )


def tripartite_bell_graph() -> CausalDag:
    """Standard tripartite Bell structure: inputs X, Y, Z feeding outputs
    A, B, C that share one latent state.  This is the hypergraph of the
    four-vertex single-latent structure, with the added roots given their
    conventional names."""
    return _binary_dag(
        ("Lambda",),
        [("X", "A"), ("Y", "B"), ("Z", "C"), ("Lambda", "A"), ("Lambda", "B"), ("Lambda", "C")],
    )


def swapping_graph() -> CausalDag:
    """Nonlocality-swapping structure with two latent variables:
    X -> A <- L1 -> B <- L2 -> C <- Z."""
    return _binary_dag(
        ("L1", "L2"),
        [("X", "A"), ("Z", "C"), ("L1", "A"), ("L1", "B"), ("L2", "B"), ("L2", "C")],
    )


def triangle_graph() -> CausalDag:
    """Triangle structure: three observed vertices pairwise sharing latents."""
    return _binary_dag(
        ("L1", "L2", "L3"),
        [("L1", "A"), ("L1", "B"), ("L2", "B"), ("L2", "C"), ("L3", "C"), ("L3", "A")],
    )
