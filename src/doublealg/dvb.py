"""The shape of a decomposed double vector bundle.

In split form (D; A, B; M) with core C is A x_M B x_M C, so its shape is a
base chart plus three frame lists.  Its two duals, over A and over B, pair
nondegenerately over C* by construction: in split form the Gram matrix of
their unit bases is a signed permutation matrix of size ra + rb.  The tests
keep the element calculus (additions, the two duals, the pairing, the
duality isomorphisms and the canonical map) as the model that checks this
against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .exact import Chart


@dataclass(frozen=True)
class DecomposedDVB:
    """Split double vector bundle A x_M B x_M C with side bundles A, B, core C."""

    chart: Chart
    frames_a: Tuple[str, ...]
    frames_b: Tuple[str, ...]
    frames_c: Tuple[str, ...]

    def __post_init__(self):
        names = self.frames_a + self.frames_b + self.frames_c
        if len(set(names)) != len(names):
            raise ValueError("side and core frame names must be distinct")
