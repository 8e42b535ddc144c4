"""The paper's figures, tables and ablations as plain pytest files.

Every benchmark runs its scenario exactly once: the numbers of interest
are *simulated* milliseconds collected inside the run (or, in the two
real-clock files, ``perf_counter`` readings the scenario takes itself),
never a stopwatch around the test, so repeating a deterministic
simulation would only waste time.  Each benchmark prints and persists
the rows its paper counterpart reports (see ``benchmarks/results/``
after a run).
"""
