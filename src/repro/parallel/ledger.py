"""Per-worker ledgers and the merge that folds them into the parent bill.

The charged I/O bill of the paper's model is a property of ONE buffer pool
processing ONE access sequence. Workers therefore never charge anything:
each returns a :class:`WorkerLedger` claiming the block touches its
shard's canonical access sequence spans, and the parent *replays* that
sequence — shard by shard, in canonical order, through its own device's
public ``touch_*`` entry points. The replay IS the ledger merge: each
shard's replayed :class:`~repro.storage.IOStats` delta is the worker's
charged contribution (attributed to a per-worker tracer span under
``parallel.round``), their sum is the parent bill, and because the merged
sequence equals the serial sequence the bill is worker-count-invariant by
construction (docs/io_model.md, "Parallel kernels and ledger merge").

The worker claims give the merge teeth: with touch counting enabled the
replayed per-extent touch tally must equal the summed claims exactly, or
:class:`LedgerMismatch` is raised — a worker that drifted from the serial
access pattern cannot silently ship a wrong bill.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..storage import IOStats


class LedgerMismatch(ReproError):
    """A worker's claimed block touches diverged from the merged replay."""


@dataclass
class WorkerLedger:
    """What one worker did: its shard and the touches it claims.

    ``touch_claims`` maps extent *suffix* (``adj``, ``adjeids``, ``sup``)
    to the number of block touches the shard's access sequence
    spans; the merge resolves suffixes against the live extent names and
    fills in ``charged`` from its replay delta.
    """

    worker_id: int
    shard: Tuple[int, int]
    touch_claims: Dict[str, int] = field(default_factory=dict)
    #: Replayed charged delta, filled in by the merge (parent side).
    charged: Optional[IOStats] = None

    def merge_claims_into(self, totals: Dict[str, int]) -> None:
        for suffix, touches in self.touch_claims.items():
            totals[suffix] = totals.get(suffix, 0) + touches


def verify_merged_touches(
    ledgers: List[WorkerLedger],
    touches_before: Dict[str, int],
    touches_after: Dict[str, int],
    extent_names: Dict[str, str],
) -> None:
    """Cross-check summed worker claims against the replayed touch tally.

    *extent_names* maps claim suffix -> full extent name (e.g. ``adj`` ->
    ``H.p1.adj``). Only runs when the device tallies touches (tracer
    attached); raises :class:`LedgerMismatch` on any divergence.
    """
    claimed: Dict[str, int] = {}
    for ledger in ledgers:
        ledger.merge_claims_into(claimed)
    for suffix, total in claimed.items():
        name = extent_names[suffix]
        replayed = touches_after.get(name, 0) - touches_before.get(name, 0)
        if replayed != total:
            raise LedgerMismatch(
                f"extent {name!r}: workers claimed {total} block touches, "
                f"merge replayed {replayed}"
            )
