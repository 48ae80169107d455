"""The solver's work in one always-on Counter, each key added to where its
work is done: ``ladder`` (plans, plan_lanes, {statistics}_passes,
pass_lanes, stale_lanes, node_sums, kernel_elements, tail_ and sea_ lanes
and blocks), the evaluators (batches, batch_lanes, cold_lanes),
``find_extrema`` (refine_passes, refine_lanes) and ``spectrum._robin_psi``
(airy_calls, airy_points)."""

import contextlib
from collections import Counter

counts = Counter()


@contextlib.contextmanager
def reading():
    """The work done inside a ``with`` block, a Counter filled in at its end."""
    before, work = counts.copy(), Counter()
    yield work
    work.update(counts - before)
