"""repro.symbolic — p4-symbolic, the data-plane test-packet generator (§5).

Symbolically executes the P4 model in a single pass (guarded commands, not
per-trace forking), treating each table entry as an implicit branch whose
guard conjoins the entry's match condition with the negation of all
higher-priority matches.  The symbolic trace T maps every control-flow
construct — branches and table entries — to the condition under which it
executes; coverage goals are assertions over the input variables X, output
expressions Y, and T, discharged by the QF_BV solver.

* :mod:`repro.symbolic.profiles` — parser profiles (the semi-hardcoded
  parser patterns of §5 "Limitations").
* :mod:`repro.symbolic.executor` — the guarded single-pass executor.
* :mod:`repro.symbolic.coverage` — coverage goals (entry, branch, custom).
* :mod:`repro.symbolic.packets` — model → concrete test packet extraction.
* :mod:`repro.symbolic.cache` — test-packet caching (§6.3 "Caching"),
  whole-run and per-goal.
"""

from repro.symbolic.coverage import CoverageGoal, CoverageMode, entry_goal_name
from repro.symbolic.executor import SymbolicExecutor, TraceKey
from repro.symbolic.packets import GeneratedPacket, GenerationResult, PacketGenerator

__all__ = [
    "CoverageGoal",
    "CoverageMode",
    "GeneratedPacket",
    "GenerationResult",
    "PacketGenerator",
    "SymbolicExecutor",
    "TraceKey",
    "entry_goal_name",
]
