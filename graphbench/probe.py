"""Set-up time of a fresh interpreter: import graphent and load the inputs.

Usage: ``python3 graphbench/probe.py ROOT < graph6-lines``.  Prints the
seconds from just after reading the inputs to having imported graphent and
its CLI, loaded the seed catalog and parsed every graph6 line with
graphent's loaders.
"""

import sys

lines = sys.stdin.read().split()

import time  # noqa: E402  (the clock starts after the inputs are read)

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1] + "/src")
import graphent  # noqa: E402
import graphent.cli  # noqa: E402,F401

graphent.load_seed_catalog()
graphs = [graphent.parse_graph6(line) for line in lines]
print(time.perf_counter() - t0)
