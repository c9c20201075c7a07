"""The pairwise batcher: the executable spec of ``repro.fuzzer.batching``.

``conflicts`` is the definition of "may not share a batch" — same entry
identity, or a ``@refers_to`` edge in either direction — asked of two
updates at a time through ``ReferenceGraph.depends_on``, re-decoding both
entries on every ask.  ``make_batches`` is the packer the production code
ran before it moved to per-update footprints, verbatim; ``plan_windows`` is
the scheduler's window split over the same predicate.  Quadratic on
purpose: the tests require the production packer and scheduler to return
exactly what these return.
"""

from typing import List, Sequence

from repro.p4.constraints.refs import ReferenceGraph
from repro.p4.p4info import P4Info
from repro.p4rt.messages import Update


def conflicts(refs: ReferenceGraph, a: Update, b: Update) -> bool:
    """Whether two updates may not share a batch."""
    if a.entry.match_key() == b.entry.match_key():
        return True  # same entry identity: order matters
    # a references a value exported by b (or vice versa): the insert must
    # land in an earlier batch than the referrer, the delete in a later one.
    return refs.depends_on(a.entry, b.entry) or refs.depends_on(b.entry, a.entry)


def make_batches(
    p4info: P4Info, updates: Sequence[Update], max_batch_size: int = 50
) -> List[List[Update]]:
    refs = ReferenceGraph(p4info)
    batches: List[List[Update]] = []
    for update in updates:
        # A batch is eligible only if the update conflicts with nothing in
        # it AND nothing in any *later* batch conflicts... since we append
        # in generation order, it suffices to scan from the last batch
        # backwards and stop at the first conflict.
        for index in range(len(batches) - 1, -1, -1):
            batch = batches[index]
            if any(conflicts(refs, update, other) for other in batch):
                # Must go strictly after this batch.
                target = index + 1
                break
        else:
            target = 0
        while True:
            if target == len(batches):
                batches.append([update])
                break
            if len(batches[target]) < max_batch_size and not any(
                conflicts(refs, update, other) for other in batches[target]
            ):
                batches[target].append(update)
                break
            target += 1
    return batches


def plan_windows(
    p4info: P4Info, batches: Sequence[List[Update]], depth: int
) -> List[List[List[Update]]]:
    """Consecutive batches, split when full or at the first cross-batch conflict."""
    refs = ReferenceGraph(p4info)
    windows: List[List[List[Update]]] = []
    current: List[List[Update]] = []
    for batch in batches:
        if current and (
            len(current) >= depth
            or any(conflicts(refs, a, b) for other in current for a in other for b in batch)
        ):
            windows.append(current)
            current = []
        current.append(batch)
    if current:
        windows.append(current)
    return windows
