"""The ordered map the pipeline runs its independent work items through.

It is a plain loop: results come back in input order, one item at a
time.  Its only call sites are in normalform: one reduction per energy
and one convergence run per sample.  It is kept only as the name that
bench/tracing.py counts (parallel.map_calls); the module goes with those
call sites once the program counts its own work.
"""


def parallel_map(fn, items):
    return [fn(item) for item in items]
