"""repro.fuzzer — p4-fuzzer, the control-plane API validator (§4).

Given a P4 model, generates sequences of valid and "interestingly invalid"
P4Runtime write requests, batches them so that no batch contains dependent
updates (§4.4), runs them against the switch, and judges every response —
and the post-batch state read-back — with an oracle encoding the P4Runtime
specification (§4.3).

* :mod:`repro.fuzzer.generator` — valid request generation from P4Info,
  @refers_to-aware.
* :mod:`repro.fuzzer.mutations` — the curated mutation catalogue (§4.2).
* :mod:`repro.fuzzer.oracle` — response/readback admissibility judging.
* :mod:`repro.fuzzer.batching` — dependency-respecting batch assembly.
* :mod:`repro.fuzzer.pipeline` — windowed in-flight write scheduling.
* :mod:`repro.fuzzer.fuzzer` — the campaign driver.
"""

from repro.fuzzer.fuzzer import FuzzerConfig, FuzzResult, P4Fuzzer, TransportSummary
from repro.fuzzer.generator import RequestGenerator
from repro.fuzzer.mutations import MUTATION_NAMES
from repro.fuzzer.oracle import Oracle
from repro.fuzzer.pipeline import BatchOutcome, PipelineStats, WriteScheduler

__all__ = [
    "BatchOutcome",
    "FuzzResult",
    "FuzzerConfig",
    "MUTATION_NAMES",
    "Oracle",
    "P4Fuzzer",
    "PipelineStats",
    "RequestGenerator",
    "TransportSummary",
    "WriteScheduler",
]
