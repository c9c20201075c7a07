"""One batch at a time: the executable specification of a depth-1 campaign.

:class:`repro.fuzzer.fuzzer.P4Fuzzer` runs every campaign through its
windowed loop (:mod:`repro.fuzzer.pipeline`).  At ``pipeline_depth=1`` that
loop must be exactly the paper's closed loop (§4.3): generate a wave, pack
it into batches, and for each batch write it, read the state back, judge,
adopt.  :class:`SequentialFuzzer` is that loop written out directly, with
no windows, no scheduler and no footprints, so ``tests/test_pipeline.py``
and ``tests/test_feedback.py`` can demand the same incident stream,
counters, final state and modeled transport wait.
"""

from typing import List

from repro.fuzzer.batching import make_batches
from repro.fuzzer.fuzzer import FuzzResult, P4Fuzzer
from repro.p4rt.channel import ChannelError
from repro.p4rt.messages import ReadRequest, Update, WriteRequest
from repro.switchv.report import Incident, IncidentKind


class SequentialFuzzer(P4Fuzzer):
    """P4Fuzzer with the write / read back / judge loop in place of windows."""

    def _campaign(self, result: FuzzResult) -> None:
        for write_index in range(self.config.num_writes):
            updates = self._generate_wave(result)
            if not updates:
                continue
            batches = make_batches(self.p4info, updates, self.config.updates_per_write)
            for batch in batches:
                self._send_batch(batch, write_index, result)
            result.writes_sent += len(batches)

    def _send_batch(self, batch: List[Update], write_index: int, result: FuzzResult) -> None:
        request = WriteRequest(updates=tuple(batch))
        try:
            response = self.switch.write(request)
        except ChannelError as exc:
            # The transport gave up (retries exhausted): a flake, not a
            # model incident.  The batch's outcome is unknown, so resync
            # the oracle from a read-back instead of projecting.
            result.transport_wait_seconds += self._last_write_wait()
            result.transport.flakes += 1
            result.incidents.report(
                Incident(
                    kind=IncidentKind.TRANSPORT_FLAKE,
                    summary=f"write abandoned by the transport: {type(exc).__name__}",
                    observed=str(exc),
                    source="p4-fuzzer",
                )
            )
            if not self._resync_oracle(result):
                # The abandoned write may have been applied and even the
                # recovery read-back failed: the oracle's view is stale
                # until a read-back lands.
                self._needs_resync = True
            return
        except Exception as exc:  # a crash is itself a finding
            result.incidents.report(
                Incident(
                    kind=IncidentKind.SWITCH_UNRESPONSIVE,
                    summary=f"switch raised {type(exc).__name__} during write",
                    observed=str(exc),
                    source="p4-fuzzer",
                )
            )
            return
        result.transport_wait_seconds += self._last_write_wait()
        result.updates_sent += len(batch)

        for update, status in zip(batch, response.statuses, strict=False):
            if status.ok and update.type.value == "MODIFY":
                self._modified_keys.add(update.entry.match_key())

        # An ambiguous outcome (some attempt of this write may or may not
        # have been applied before the one that answered) makes per-update
        # status judging unsound; so does a stale oracle.  Read the state
        # back and adopt it instead of reporting phantom incidents.
        info = getattr(self.switch, "last_write_info", None)
        if self._needs_resync or (info is not None and info.ambiguous):
            result.transport.ambiguous_batches += 1
            if self._resync_oracle(result):
                result.transport.resyncs += 1
                self._needs_resync = False
            else:
                self._needs_resync = True
            self.generator.state.replace_all(self.oracle.installed_entries())
            return

        # Without a fresh read-back (None), the oracle judges statuses only
        # and projects its expected state forward.
        read_back = None
        if self.config.read_back_every and write_index % self.config.read_back_every == 0:
            try:
                read_back = list(self.switch.read(ReadRequest(table_id=0)).entries)
                result.transport_wait_seconds += self._last_read_wait()
            except ChannelError as exc:
                result.transport_wait_seconds += self._last_read_wait()
                # A failed read-back downgrades this batch to status-only
                # judging: the write's statuses are real and the oracle
                # must still project the batch forward.
                result.transport.flakes += 1
                result.incidents.report(
                    Incident(
                        kind=IncidentKind.TRANSPORT_FLAKE,
                        summary=f"read abandoned by the transport: {type(exc).__name__}",
                        observed=str(exc),
                        source="p4-fuzzer",
                    )
                )
            except Exception as exc:
                result.incidents.report(
                    Incident(
                        kind=IncidentKind.SWITCH_UNRESPONSIVE,
                        summary=f"switch raised {type(exc).__name__} during read",
                        observed=str(exc),
                        source="p4-fuzzer",
                    )
                )

        log = self.oracle.judge_batch(batch, response, read_back)
        result.incidents.extend(log)
        # Keep the generator's view in sync with the oracle's adopted state.
        self.generator.state.replace_all(self.oracle.installed_entries())
        self._observe_coverage(batch, write_index)

    def _resync_oracle(self, result: FuzzResult) -> bool:
        """Read the switch state back and adopt it (§4.3).  Returns False
        when even the read-back failed."""
        try:
            read_back = list(self.switch.read(ReadRequest(table_id=0)).entries)
            result.transport_wait_seconds += self._last_read_wait()
        except ChannelError as exc:
            result.transport_wait_seconds += self._last_read_wait()
            result.transport.flakes += 1
            result.incidents.report(
                Incident(
                    kind=IncidentKind.TRANSPORT_FLAKE,
                    summary=f"resync read abandoned by the transport: {type(exc).__name__}",
                    observed=str(exc),
                    source="p4-fuzzer",
                )
            )
            return False
        except Exception as exc:
            result.incidents.report(
                Incident(
                    kind=IncidentKind.SWITCH_UNRESPONSIVE,
                    summary=f"switch raised {type(exc).__name__} during resync read",
                    observed=str(exc),
                    source="p4-fuzzer",
                )
            )
            return False
        self.oracle.resync(read_back)
        self.generator.state.replace_all(self.oracle.installed_entries())
        return True

    def _last_write_wait(self) -> float:
        """Modeled wait of the calling thread's last write RPC."""
        info = getattr(self.switch, "last_write_info", None)
        if info is not None:
            return getattr(info, "wait_s", 0.0)
        return getattr(self.switch, "last_rpc_wait_s", 0.0)
