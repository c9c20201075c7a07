"""Parallel packet generation: sharded goal solving across processes.

Packet generation poses one independent solver cascade per coverage goal,
which makes it embarrassingly parallel — the observation P4Testgen exploits
for per-path test extraction.  This module shards the goal list round-robin
across ``workers`` forked processes.  Each worker inherits the parent's
symbolic executions and hash-consed term graph through fork's copy-on-write
memory (no re-execution, no pickling of terms), builds its own per-profile
incremental solvers, solves its shard, and ships back picklable
:class:`GeneratedPacket` results plus its :class:`GenerationStats` counters,
which the parent merges.

Robustness contract:

* ``workers=1`` never enters this module — :meth:`PacketGenerator.generate`
  keeps the exact sequential path.
* Platforms without the ``fork`` start method degrade to sequential solving.
* A crashed worker (OOM-killed, segfaulted, fault-injected) loses only its
  shard's progress: the parent detects the broken pool and re-solves every
  unfinished goal sequentially, so a run is never lost to a worker death.

The SAT/UNSAT verdict of every cascade query is model-independent, so the
*covered-goal set* is identical to a sequential run; only the concrete
witness packets may differ (each worker's solver walks its own decision
path).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.symbolic.cache import CachedGoal
from repro.symbolic.coverage import CoverageGoal, CoverageMode, goals_for_mode
from repro.symbolic.packets import (
    GeneratedPacket,
    GenerationResult,
    GenerationStats,
    PacketGenerator,
)

# Worker state, published by the parent immediately before the pool forks;
# workers read it through fork-inherited memory (closures and term graphs
# included), which is why none of it needs to be picklable.
_WORKER_GENERATOR: Optional[PacketGenerator] = None
_WORKER_GOALS: Optional[List[CoverageGoal]] = None

# Test hook: when True, forked workers die immediately (inherited at fork
# time), exercising the broken-pool -> sequential-fallback path.
_FAULT_INJECT = False


def _solve_shard(indices: List[int]):
    """Worker entry point: solve one shard of goal indices."""
    if _FAULT_INJECT:
        os._exit(3)
    generator = _WORKER_GENERATOR
    goals = _WORKER_GOALS
    executions = generator.executions()
    shard_stats = GenerationStats()
    effort_before = generator._solver_effort()
    solved = []
    # Shard-local subsumption: a goal an earlier packet of this shard
    # already witnesses is covered without a solver cascade.  (Cross-shard
    # subsumption would need the other workers' packets — not worth the
    # synchronisation; missed hits just solve normally.)
    shard_packets: List[GeneratedPacket] = []
    for index in indices:
        generated = generator.subsume_goal(goals[index], executions, shard_packets)
        if generated is not None:
            shard_stats.goals_subsumed += 1
        else:
            generated = generator._solve_goal(
                goals[index], executions, shard_stats, index
            )
        if generated is not None:
            shard_packets.append(generated)
        solved.append((index, generated))
    generator._account_effort(shard_stats, effort_before)
    return solved, shard_stats


def generate_parallel(
    generator: PacketGenerator,
    mode: CoverageMode = CoverageMode.ENTRY,
    custom_goals: Sequence[CoverageGoal] = (),
    workers: int = 2,
    goal_cache=None,
) -> GenerationResult:
    """Shard the coverage goals across ``workers`` processes and merge."""
    global _WORKER_GENERATOR, _WORKER_GOALS
    start = time.perf_counter()
    stats = GenerationStats(workers=max(1, workers))
    executions = generator.executions()
    goals = goals_for_mode(executions, mode, custom_goals)
    stats.goals_total = len(goals)
    # Before the fork: every worker inherits the finished programs.
    generator.register_goals(goals, executions)

    # Per-goal cache pass (parent only): answered goals never reach a worker.
    outcomes: Dict[int, Optional[GeneratedPacket]] = {}
    keys: Dict[int, str] = {}
    to_solve: List[int] = []
    for index, goal in enumerate(goals):
        if goal_cache is not None:
            key = generator._goal_cache_key(goal, executions)
            keys[index] = key
            hit = goal_cache.lookup_goal(key)
            if hit is not None:
                stats.goals_from_cache += 1
                outcomes[index] = hit.packet
                continue
        to_solve.append(index)

    if to_solve:
        if workers <= 1 or "fork" not in mp.get_all_start_methods():
            _solve_sequentially(generator, goals, executions, to_solve, outcomes, stats)
        else:
            # Round-robin sharding balances the port-diversified goal
            # cascade (solve cost correlates with goal index order) and
            # preserves each goal's original index, which the sequential
            # path uses for ingress-port rotation.
            shards = [to_solve[k::workers] for k in range(workers)]
            shards = [shard for shard in shards if shard]
            _WORKER_GENERATOR = generator
            _WORKER_GOALS = goals
            try:
                with ProcessPoolExecutor(
                    max_workers=len(shards), mp_context=mp.get_context("fork")
                ) as pool:
                    futures = [pool.submit(_solve_shard, shard) for shard in shards]
                    for future in futures:
                        try:
                            solved, shard_stats = future.result()
                        except Exception:
                            continue  # shard lost; re-solved below
                        for index, generated in solved:
                            outcomes[index] = generated
                        stats.merge(shard_stats)
            except Exception:
                pass  # pool never came up; everything re-solved below
            finally:
                _WORKER_GENERATOR = None
                _WORKER_GOALS = None
            unsolved = [index for index in to_solve if index not in outcomes]
            if unsolved:
                _solve_sequentially(
                    generator, goals, executions, unsolved, outcomes, stats
                )
        if goal_cache is not None:
            for index in to_solve:
                goal_cache.store_goal(
                    keys[index],
                    CachedGoal(goal=goals[index].name, packet=outcomes[index]),
                )

    # Assemble in goal order, matching the sequential result layout.
    packets: List[GeneratedPacket] = []
    uncovered: List[str] = []
    for index, goal in enumerate(goals):
        generated = outcomes[index]
        if generated is not None:
            packets.append(generated)
            stats.goals_covered += 1
        else:
            uncovered.append(goal.name)
            stats.goals_unsatisfiable += 1
    stats.elapsed_seconds = time.perf_counter() - start
    return GenerationResult(packets=packets, uncovered=uncovered, stats=stats)


def _solve_sequentially(
    generator: PacketGenerator,
    goals: List[CoverageGoal],
    executions,
    indices: List[int],
    outcomes: Dict[int, Optional[GeneratedPacket]],
    stats: GenerationStats,
) -> None:
    """In-parent fallback: solve the given goal indices one by one."""
    effort_before = generator._solver_effort()
    solved_packets: List[GeneratedPacket] = []
    for index in indices:
        generated = generator.subsume_goal(goals[index], executions, solved_packets)
        if generated is not None:
            stats.goals_subsumed += 1
        else:
            generated = generator._solve_goal(goals[index], executions, stats, index)
        if generated is not None:
            solved_packets.append(generated)
        outcomes[index] = generated
    generator._account_effort(stats, effort_before)

