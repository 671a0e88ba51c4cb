"""The ``scipy`` tier: source-chunked IA for intra-rank parallelism.

The IA hot path — one local all-pairs shortest-path call per rank — is
a single indivisible task under the ``numpy`` tier, so the process
backend's speedup saturates at the rank count.
:func:`~repro.runtime.kernels.oracle.local_apsp_rows` computes each
source's row independently (level sweep or ``csgraph.dijkstra``), which
means one rank's task can split into many source-range chunks that fan
out across the whole pool and recombine bitwise-identically:

* the rows of a chunk equal the same rows of the full call
  (per-source independence), and
* each chunk folds only its own ``[lo, hi)`` rows of ``dv`` / ``apsp``
  (source ``s`` only ever updates row ``s``), so chunks touch disjoint
  memory and may run concurrently against the same shared arrays.

The RC-superstep kernels are the oracle's — this tier only changes how
IA work is decomposed, not any arithmetic.
"""

from __future__ import annotations

from .base import ChunkList, IATask
from .numpy_tier import NumpyTier
from .registry import register_tier

__all__ = ["ScipyTier"]

#: Target chunks per pool slot: enough to load-balance uneven ranks
#: without drowning the pool in per-task overhead.
_CHUNKS_PER_SLOT = 4

#: Minimum sources per chunk; below this the submit/pickle overhead
#: dominates the IA work.  Since IA on unit weights is a level sweep a
#: 64-source chunk of a 500-vertex rank is 0.2 ms of work against about
#: 0.3 ms of overhead: ``static-pool`` ``setup_s`` medians 46.0 ms at 64
#: and 43.8 ms at 256 (six alternating pairs, 256 ahead in five).
_MIN_CHUNK = 256


@register_tier("scipy")
class ScipyTier(NumpyTier):
    """Oracle arithmetic with source-parallel IA decomposition."""

    name = "scipy"

    def ia_chunks(self, task: IATask, parallelism: int) -> ChunkList:
        n = task.n
        size = max(_MIN_CHUNK, -(-n // max(1, parallelism * _CHUNKS_PER_SLOT)))
        if size >= n:
            return [(0, n)]
        return [(lo, min(lo + size, n)) for lo in range(0, n, size)]
