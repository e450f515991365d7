"""Decomposing bipartite no-signalling boxes.

Every binary bipartite no-signalling box is a convex combination of one
PR-family box and the sixteen local deterministic boxes.  The decomposition
is one exact feasibility LP: over the PR box whose CHSH variant the box
scores above 3 on, plus the locals, or over the locals alone when no
variant exceeds 3.  The reconstruction is entry-exact.
"""

import random
from fractions import Fraction

from causalbox import Kernel, decompose_ns_box, local_box, local_responses, ns_box_vertices, pr_box

index, weights = decompose_ns_box(pr_box(1, 0, 1))
print("PR(1,0,1) decomposes as PR", index, "with weight", weights[0])

rng = random.Random(7)
vertices = ns_box_vertices()
raw = [Fraction(rng.randint(0, 5)) for _ in vertices]
total = sum(raw)
mix = [w / total for w in raw]
box = Kernel.from_function(
    (("A", 2), ("B", 2)),
    (("X", 2), ("Y", 2)),
    lambda v: sum(w * b.value(v) for w, b in zip(mix, vertices)),
)

index, weights = decompose_ns_box(box)
print("\na random no-signalling box decomposes with PR part:", index, "at", weights[0])
for i, w in enumerate(weights[1:]):
    if w:
        fa, fb = local_responses(i)
        print(f"  local {i:2d} (a={fa}, b={fb}): {w}")

rebuilt = lambda env: (pr_box(*index).value(env) * weights[0] if index else 0) + sum(
    w * local_box(i).value(env) for i, w in enumerate(weights[1:])
)
print("reconstruction exact:", all(rebuilt(e) == v for e, v in box.cells()))
