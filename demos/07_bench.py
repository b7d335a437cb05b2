"""Benchmark harness: sweep grid sizes, compare against the exact oracle.

Equivalent to `sepflow bench --grids 8,12,16 --eps 0.1 --seed 3`; the CSV
carries (instance, n, m, r, eps, value, exact, ratio, wall time, inner
iterations, factorizations, PCG iterations): the inner multiplicative-weights
iterations of grouped flow, and the fresh solver factors and the PCG
iterations on rebound ones that served their electrical flows.  The
exact-oracle column runs automatically up to 100k edges.
"""

from sepflow.cli import main

main(["bench", "--grids", "8,12,16", "--eps", "0.1", "--seed", "3"])
