"""The solver's work, counted where it is done: one Counter, always on, that
each site defining a unit of work adds to under its own keys: ``_Plan``
(plans, plan_lanes), ``ladder._sums`` ({statistics}_passes, pass_lanes,
stale_lanes), ``_node_sums`` (node_sums, kernel_elements), ``_Plan``'s
closures (tail_ and sea_ lanes and blocks), ``_Evaluator`` and
``canonical._canonical`` (batches, batch_lanes, cold_lanes),
``find_extrema`` (refine_passes, refine_lanes) and ``spectrum._robin_psi``
(airy_calls, airy_points).
``reading`` gives the work of a run as the difference of two snapshots."""

import contextlib
from collections import Counter

counts = Counter()


@contextlib.contextmanager
def reading():
    """The work done inside a ``with`` block, as a Counter filled in when
    the block ends."""
    before, work = counts.copy(), Counter()
    yield work
    work.update(counts - before)
