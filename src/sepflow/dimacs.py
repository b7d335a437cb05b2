"""Extended DIMACS max-flow file I/O.

Header ``p max <n> <m>``; node lines ``n <id> s|t``; arc lines
``a <tail> <head> <capacity>`` read as undirected edges.  Vertex ids are
1-based in files (the DIMACS convention) and 0-based in memory.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .graphs import WeightedGraph


def load_dimacs(path):
    """Parse a DIMACS file; returns (graph, s, t).

    A vertex id outside ``1..n`` on an ``n`` or ``a`` line, an ``a`` line
    whose ends are one vertex, or a capacity that is not positive and finite
    (``nan``, ``inf`` among them), raises ``ParseError`` naming that line,
    wherever the ``p`` line stands; so do a ``p`` line with no vertex or a
    negative arc count, a second ``p`` line, an ``n`` line that repeats a
    terminal or makes s and t one vertex (naming the earlier line too), and
    an arc count that the ``a`` lines do not match (naming the ``p`` line).
    """
    n = m = header = None
    edges = []
    caps = []
    ids = []  # (line number, 0-based vertex id) of every n and a record
    terminals = {}  # "s" or "t" -> (line number, 0-based vertex id)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0] == "c":
                continue
            kind = parts[0]
            try:
                if kind == "p":
                    if len(parts) != 4 or parts[1] != "max":
                        raise ParseError(f"line {lineno}: expected 'p max <n> <m>'")
                    if header is not None:
                        raise ParseError(f"line {lineno}: second 'p' line (first on line {header})")
                    n, m, header = int(parts[2]), int(parts[3]), lineno
                    if n < 1 or m < 0:
                        raise ParseError(f"line {lineno}: need n >= 1 vertices and m >= 0 arcs")
                elif kind == "n":
                    if len(parts) != 3 or parts[2] not in ("s", "t"):
                        raise ParseError(f"line {lineno}: expected 'n <id> s|t'")
                    v, role = int(parts[1]) - 1, parts[2]
                    for other, (first, u) in terminals.items():
                        if other == role or u == v:
                            raise ParseError(f"line {lineno}: 'n {v + 1} {role}' conflicts with"
                                             f" 'n {u + 1} {other}' on line {first}")
                    terminals[role] = (lineno, v)
                    ids.append((lineno, v))
                elif kind == "a":
                    if len(parts) != 4:
                        raise ParseError(f"line {lineno}: expected 'a <tail> <head> <capacity>'")
                    u, v = int(parts[1]) - 1, int(parts[2]) - 1
                    if u == v:
                        raise ParseError(f"line {lineno}: self-loop at vertex {u + 1}")
                    c = float(parts[3])
                    if not 0 < c < np.inf:  # also false for nan
                        raise ParseError(f"line {lineno}: capacity must be positive and finite")
                    edges.append((u, v))
                    caps.append(c)
                    ids.extend([(lineno, u), (lineno, v)])
                else:
                    raise ParseError(f"line {lineno}: unknown record '{kind}'")
            except ValueError:
                raise ParseError(f"line {lineno}: bad number in '{raw.strip()}'") from None
    if n is None:
        raise ParseError("missing 'p max' header")
    for lineno, v in ids:
        if not 0 <= v < n:
            raise ParseError(f"line {lineno}: vertex id {v + 1} is outside 1..{n}")
    if len(edges) != m:
        raise ParseError(f"line {header}: header declares {m} arcs, file has {len(edges)}")
    g = WeightedGraph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                      capacity=np.asarray(caps))
    s, t = (terminals.get(role, (None, None))[1] for role in ("s", "t"))
    return g, s, t


def save_dimacs(g: WeightedGraph, path, s=None, t=None):
    """Write the graph as extended DIMACS (1-based ids)."""
    with open(path, "w") as fh:
        fh.write(f"p max {g.n} {g.m}\n")
        if s is not None:
            fh.write(f"n {int(s) + 1} s\n")
        if t is not None:
            fh.write(f"n {int(t) + 1} t\n")
        for a, b, c in zip(g.tails, g.heads, g.capacity):
            fh.write(f"a {int(a) + 1} {int(b) + 1} {float(c)!r}\n")
