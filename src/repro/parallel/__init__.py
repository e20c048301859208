"""True-parallel shard execution: one worker process per shard.

The in-process federation (:mod:`repro.federation`) models concurrency:
shard collection latencies combine as a makespan on one simulated
clock, but every shard's Python work runs serially in the coordinator.
This package is the backend that runs each shard's ``SensorMapPortal``
in its own worker *process*, so the per-shard work genuinely overlaps
on the wall clock:

- The coordinator holds sockets and pids and no shard state
  (:class:`~repro.parallel.portal.ProcessBackend`); each forked worker
  builds — or recovers — its shard deterministically from the same
  :class:`~repro.federation.backend.ShardSpec` the in-process backend
  builds from (:mod:`repro.parallel.worker`).
- Only query descriptors, answers and stats cross the worker's socket
  pair, as length-prefixed frames (:mod:`repro.parallel.framing`) whose
  hot replies are packed columns rather than object graphs
  (:mod:`repro.parallel.wire`) — per-query communication is O(answer),
  never O(index).

Select it with ``FederationConfig(execution="process")``:
``FederatedPortal(...)`` keeps the same coordinator semantics and
returns bit-identical answers on the same seed.
"""

from repro.parallel.portal import ProcessBackend

__all__ = ["ProcessBackend"]
