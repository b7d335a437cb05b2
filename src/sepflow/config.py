"""Run configuration and deterministic seed substreams."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GraphError

MASK63 = (1 << 63) - 1


def require_integer(who, name, value, least):
    """Raise ``GraphError`` unless ``value`` is an integer >= ``least``."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise GraphError(f"{who} requires {name} to be an integer >= {least}, not {value!r}")


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
    """What a caller sets for one end-to-end run.

    ``eps`` must equal the ``eps`` passed to ``approx_max_flow`` or
    ``route_fixed_flow``, which reject a mismatch.  ``r`` (an integer >= 4)
    is only validated: the partition's own ``r`` sets the outer width.
    No library code draws from ``seed``: it is carried into
    ``ApproxMaxFlowResult.seed``, and the CLI's ``--seed`` also seeds
    ``--random-capacities``.  ``max_outer_iterations`` and ``max_probes``
    (integers >= 1) cap each phase's outer loop and the flow-amount search.
    The algorithm's other constants live in ``pipeline``.
    """

    eps: float = 0.1
    r: int = 32
    seed: int = 0
    max_outer_iterations: int = 40
    max_probes: int = 16

    def __post_init__(self):
        if not (0 < self.eps < 0.5):
            raise GraphError("config requires 0 < eps < 1/2")
        for name, least in (("r", 4), ("max_outer_iterations", 1), ("max_probes", 1)):
            require_integer("config", name, getattr(self, name), least)
