"""Online versus offline schedule management (Section III-D).

A MergePath-SpMM schedule depends only on the sparse matrix, so when the
adjacency matrix is stationary across inferences the schedule is computed
once and reused (*offline*).  When the graph evolves — or a new graph
arrives per inference — the schedule must be recomputed every time
(*online*), and its cost shows up as the scheduling overhead the paper
quantifies in Figure 8.

:class:`SchedulingMode` names the two; the *modeled* (GPU-cycle)
scheduling overhead of the Figure 8 harness is
:func:`repro.gpu.overhead.model_gcn_inferences`'s.
"""

from __future__ import annotations

import enum


class SchedulingMode(enum.Enum):
    """When schedules are (re)computed."""

    OFFLINE = "offline"
    ONLINE = "online"
