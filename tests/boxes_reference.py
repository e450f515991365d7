"""The fixture constructors of ``causalbox.boxes`` as each spelled out its
vertex list and its party lists, kept verbatim as the reference for
``test_fixtures_equal_their_reference`` in ``test_boxes.py``.

The seven graph constructors list every observed endpoint as a binary
vertex and every latent by hand; the five box constructors spell their
outcome and input variables inline.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from causalbox.graphs import LATENT, OBSERVED, CausalDag
from causalbox.tables import Kernel

_BIT = (0, 1)

#: the four single-party deterministic responses, in canonical order
_RESPONSES = {
    0: ("const0", lambda x: 0),
    1: ("const1", lambda x: 1),
    2: ("id", lambda x: x),
    3: ("not", lambda x: 1 - x),
}


@lru_cache(maxsize=None)
def pr_box(alpha: int = 0, beta: int = 0, gamma: int = 0) -> Kernel:
    """(alpha, beta, gamma)-PR box; (0, 0, 0) is the standard PR box."""
    for bit in (alpha, beta, gamma):
        if bit not in _BIT:
            raise IndexError("PR box parameters must be bits")

    def fn(v):
        target = (v["X"] & v["Y"]) ^ (alpha & v["X"]) ^ (beta & v["Y"]) ^ gamma
        return Fraction(1, 2) if (v["A"] ^ v["B"]) == target else Fraction(0)

    return Kernel.from_function((("A", 2), ("B", 2)), (("X", 2), ("Y", 2)), fn)


@lru_cache(maxsize=None)
def local_box(i: int) -> Kernel:
    """Deterministic local box number ``i``.

    The index encodes i = 4 * f_a + f_b with both response functions drawn
    from (const0, const1, id, not) in that order.  No standard numbering of
    the sixteen boxes exists, so this encoding is the library's canonical
    convention (see also :func:`local_responses`).
    """
    if not 0 <= i <= 15:
        raise IndexError("local box index must be in 0..15")
    f_a = _RESPONSES[i // 4][1]
    f_b = _RESPONSES[i % 4][1]

    def fn(v):
        ok = v["A"] == f_a(v["X"]) and v["B"] == f_b(v["Y"])
        return Fraction(1) if ok else Fraction(0)

    return Kernel.from_function((("A", 2), ("B", 2)), (("X", 2), ("Y", 2)), fn)


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

    return Kernel.from_function(
        (("A", 2), ("B", 2), ("C", 2)), (("X", 2), ("Y", 2), ("Z", 2)), fn
    )


def gyni_projected() -> Kernel:
    """Family p(A, B, C | X) obtained from the GYNI box by substituting
    Y = A and Z = B: uniform 1/3 on {(0,0,0), (1,0,1), (1,1,0)} for X = 0 and
    on {(0,1,1), (1,0,1), (1,1,0)} for X = 1."""

    def fn(v):
        return Fraction(
            _gyni_indicator(v["A"], v["B"], v["C"], v["X"], v["A"], v["B"]), 3
        )

    return Kernel.from_function((("A", 2), ("B", 2), ("C", 2)), (("X", 2),), fn)


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

    return Kernel.from_function(
        (("A", 2), ("B", 2), ("C", 2)), (("X", 2), ("Z", 2)), fn
    )


def chsh_graph() -> CausalDag:
    """Bipartite Bell structure: X -> A <- Lambda -> B <- Y."""
    return CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("X", OBSERVED, 2),
            ("Y", OBSERVED, 2),
            ("Lambda", LATENT),
        ],
        [("X", "A"), ("Y", "B"), ("Lambda", "A"), ("Lambda", "B")],
    )


def instrumental_graph() -> CausalDag:
    """Instrumental structure: X -> A -> B with Lambda -> A, Lambda -> B."""
    return CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("X", OBSERVED, 2),
            ("Lambda", LATENT),
        ],
        [("X", "A"), ("A", "B"), ("Lambda", "A"), ("Lambda", "B")],
    )


def mediation_graph() -> CausalDag:
    """Mediation structure X -> A -> B -> C with Lambda -> A, Lambda -> C,
    the smallest graph with a Verma constraint."""
    return CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("C", OBSERVED, 2),
            ("X", OBSERVED, 2),
            ("Lambda", LATENT),
        ],
        [("X", "A"), ("A", "B"), ("B", "C"), ("Lambda", "A"), ("Lambda", "C")],
    )


def gyni_graph() -> CausalDag:
    """Four observed vertices, one latent: X -> A -> B -> C with Lambda
    parenting A, B and C.  Its hypergraph is the tripartite Bell structure."""
    return CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("C", OBSERVED, 2),
            ("X", OBSERVED, 2),
            ("Lambda", LATENT),
        ],
        [
            ("X", "A"),
            ("A", "B"),
            ("B", "C"),
            ("Lambda", "A"),
            ("Lambda", "B"),
            ("Lambda", "C"),
        ],
    )


def tripartite_bell_graph() -> CausalDag:
    """Standard tripartite Bell structure: inputs X, Y, Z feeding outputs
    A, B, C that share one latent state.  This is the hypergraph of the
    four-vertex single-latent structure, with the added roots given their
    conventional names."""
    return CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("C", OBSERVED, 2),
            ("X", OBSERVED, 2),
            ("Y", OBSERVED, 2),
            ("Z", OBSERVED, 2),
            ("Lambda", LATENT),
        ],
        [
            ("X", "A"),
            ("Y", "B"),
            ("Z", "C"),
            ("Lambda", "A"),
            ("Lambda", "B"),
            ("Lambda", "C"),
        ],
    )


def swapping_graph() -> CausalDag:
    """Nonlocality-swapping structure with two latent variables:
    X -> A <- L1 -> B <- L2 -> C <- Z."""
    return CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("C", OBSERVED, 2),
            ("X", OBSERVED, 2),
            ("Z", OBSERVED, 2),
            ("L1", LATENT),
            ("L2", LATENT),
        ],
        [
            ("X", "A"),
            ("Z", "C"),
            ("L1", "A"),
            ("L1", "B"),
            ("L2", "B"),
            ("L2", "C"),
        ],
    )


def triangle_graph() -> CausalDag:
    """Triangle structure: three observed vertices pairwise sharing latents."""
    return CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("C", OBSERVED, 2),
            ("L1", LATENT),
            ("L2", LATENT),
            ("L3", LATENT),
        ],
        [
            ("L1", "A"),
            ("L1", "B"),
            ("L2", "B"),
            ("L2", "C"),
            ("L3", "C"),
            ("L3", "A"),
        ],
    )
