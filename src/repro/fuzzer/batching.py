"""Dependency-respecting batch assembly (§4.4).

A single Write RPC's updates may execute in any order, so a batch must
contain only independent updates: no two may touch the same entry identity,
and none may reference a value another exports (the insert must land in an
earlier batch than its referrer, the delete in a later one).

Each update is decoded once into a :class:`Footprint`.  The invariant:
**a batch's footprint is the union of its members'; joining is legal iff
key ∉ keys and demands/exports are cross-disjoint** — the pairwise rule
(:func:`verify_batch_independence`) quantified over the batch, at one
decode per update instead of one per pair.  The same mechanism serves
control plane testing, installing data-plane test state, the controller,
and the pipelined scheduler's in-flight windows.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.p4.constraints.refs import AvailableState, ReferenceGraph
from repro.p4.p4info import P4Info
from repro.p4rt.messages import Update


class Footprint:
    """What ``updates`` (each decoded exactly once) touch: their entry
    identities and the ``(table, key, value)`` pairs they export and demand
    through @refers_to edges.  Grows by :meth:`absorb`, never shrinks."""

    def __init__(
        self, refs: Optional[ReferenceGraph] = None, updates: Iterable[Update] = ()
    ) -> None:
        self.keys = set()  # entry identities
        self.exports = set()  # (table, key, value) made referenceable
        self.demands = set()  # (table, key, value) referenced
        for update in updates:
            self.keys.add(update.entry.match_key())
            self.exports.update(refs.exported_values(update.entry))
            for ref in refs.references_of(update.entry):
                self.demands.update((ref.target_table, *pair) for pair in ref.pairs)

    def conflicts(self, other: "Footprint") -> bool:
        """Whether some update here may not share a batch with one there."""
        return not (
            self.keys.isdisjoint(other.keys)
            and self.demands.isdisjoint(other.exports)
            and self.exports.isdisjoint(other.demands)
        )

    def absorb(self, other: "Footprint") -> None:
        self.keys |= other.keys
        self.exports |= other.exports
        self.demands |= other.demands


def make_batches(
    p4info: P4Info, updates: Sequence[Update], max_batch_size: int = 50
) -> List[List[Update]]:
    """Greedily pack updates into order-independent batches.

    Updates are kept in their generated order across batches (so an insert
    that a later update references lands in an earlier batch), while each
    batch is internally unordered-safe.
    """
    refs = ReferenceGraph(p4info)
    batches: List[List[Update]] = []
    footprints: List[Footprint] = []
    for update in updates:
        footprint = Footprint(refs, (update,))
        # The update must go strictly after the last batch it conflicts
        # with; every later batch is compatible, so only size is left to
        # check from there on.
        target = len(batches)
        while target and not footprint.conflicts(footprints[target - 1]):
            target -= 1
        while target < len(batches) and len(batches[target]) >= max_batch_size:
            target += 1
        if target == len(batches):
            batches.append([])
            footprints.append(Footprint())
        batches[target].append(update)
        footprints[target].absorb(footprint)
    return batches


def order_inserts(p4info: P4Info, updates: Sequence[Update]) -> List[Update]:
    """Topologically order INSERT updates so dependencies come first.

    Callers assembling a state from scratch (the harness install path, the
    controller) may list entries in any order; referenced entries must be
    installed before their referrers.  Reference cycles cannot arise from
    @refers_to in well-formed programs; if one does, the residue is
    appended in the original order.
    """
    refs = ReferenceGraph(p4info)
    remaining = [(update, refs.references_of(update.entry)) for update in updates]
    ordered: List[Update] = []
    available = AvailableState()
    while remaining:
        progress, stuck = [], []
        for update, references in remaining:
            satisfied = all(map(available.satisfies, references))
            (progress if satisfied else stuck).append((update, references))
        if not progress:  # cycle or genuinely dangling: keep order
            ordered.extend(update for update, _ in stuck)
            break
        for update, _ in progress:
            ordered.append(update)
            exported = refs.exported_keyset(update.entry)
            if exported is not None:
                available.add(*exported)
        remaining = stuck
    return ordered


def verify_batch_independence(p4info: P4Info, batch: Sequence[Update]) -> bool:
    """Check a batch contains no dependent pair — the pairwise definition
    :class:`Footprint` is the batched form of (used by tests)."""
    refs = ReferenceGraph(p4info)
    return not any(
        a.entry.match_key() == b.entry.match_key()
        or refs.depends_on(a.entry, b.entry)
        or refs.depends_on(b.entry, a.entry)
        for i, a in enumerate(batch)
        for b in batch[i + 1 :]
    )
