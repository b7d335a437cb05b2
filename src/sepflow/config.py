"""Run configuration, constant overrides, and deterministic seed substreams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError

MASK63 = (1 << 63) - 1


def substream(seed: int, *tags) -> int:
    """Deterministic 63-bit child seed for a named substream.

    Tags may be ints or short strings; the result depends on the seed and
    the tags only, not on the order in which substreams are drawn.
    """
    ints = []
    for t in tags:
        if isinstance(t, str):
            ints.extend(t.encode())
        else:
            ints.append(int(t) & MASK63)
    ss = np.random.SeedSequence(entropy=(int(seed) & MASK63, *ints))
    return int(ss.generate_state(1, dtype=np.uint64)[0]) & MASK63


@dataclass
class RunConfig:
    """Knobs for the end-to-end solver; the defaults match the library constants."""

    eps: float = 0.1
    r: int = 32
    seed: int = 0
    strict_paper: bool = False

    # outer oracle loop
    c_w: float = 10.0
    max_outer_iterations: int = 40
    max_probes: int = 16
    probe_slack: float = 1.0 / 3.0  # probe succeeds at value >= (1 - slack*eps) * F
    update_width_floor: float = 1.2  # adaptive update width = max(iterate congestion, floor)
    outer_stagnation_limit: int = 6

    # inner grouped flow
    max_inner_iterations: int = 80
    inner_budget_units: int = 200_000  # ~iterations * quotient size per oracle call
    inner_iteration_ceiling: int = 4000

    def __post_init__(self):
        if not (0 < self.eps < 0.5):
            raise GraphError("config requires 0 < eps < 1/2")
        if self.r < 4:
            raise GraphError("config requires r >= 4")
        if self.c_w <= 0:
            raise GraphError("c_w must be positive")
