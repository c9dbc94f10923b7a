"""Test-side memory measurement by tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call counts its arrays and Python objects alike, and it does not move
with whatever else runs on the machine, as the resident set size does.
"""

import tracemalloc


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the result and the peak of traced memory
    during the call, in bytes above the traced memory at its start."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base
