"""Compiled concrete evaluation of term DAGs.

A :class:`CompiledTerm` is a *program*: term DAGs flattened into postorder
bytecode — parallel flat arrays of integer opcodes and argument *slot
indices*, one slot per unique subterm, executed by a single tight loop.
Constants are folded into the initial slot template at compile time and
variables load through a prelude table, so the dispatch loop only ever
sees interior operators; width masks, sign bits and extract offsets are
precomputed into the instruction payloads.

A program has one or more *roots*.  :meth:`CompiledTerm.add_root` appends
only the nodes no earlier root reached, so roots that share structure —
every goal condition of one parser profile shares most of the symbolic
walk — cost their union, not their sum; one ``evaluate_roots`` pass then
yields every root's value under one assignment.
``CompiledTerm(term).evaluate(...)`` is the one-root case.

Who owns a program:

* ``PacketGenerator`` owns one multi-root program per parser profile for
  goal subsumption: each generated packet is evaluated over it once and
  ``subsume_goal`` reads one value per (goal, prior packet).  It lives and
  dies with the generator and never touches the cache below.
* Everything that evaluates *one* formula under many assignments — the
  canonical-witness fast path, ``minmodel``, ``Model.evaluate``, the
  analysis witnesses and reachability prefilters — goes through
  :func:`compile_term`, a process-wide cache of single-root programs.
  Terms are hash-consed (same structure ⇒ same object — see
  ``terms._TERM_CACHE``), so keying on term identity is exactly "compiled
  once per ``term_digest``" without paying a SHA-256 walk per lookup.

``tests/treewalk_eval.py`` is the independent reference semantics (one
recursive Python frame per node); ``tests/test_smt_compile.py`` holds the
randomized equivalence guard between the two.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Mapping, Optional

from repro.smt import terms as T

# Integer opcodes for the dispatch loop, ordered roughly by frequency in
# packet-generation goal conditions (match-guard negation chains are
# NOT/AND/EQ/ITE-heavy) so the elif chain short-circuits early.
_NOT = 0
_AND = 1
_EQ = 2
_ITE = 3
_OR = 4
_BVAND = 5
_EXTRACT = 6
_ZEXT = 7
_ULT = 8
_ULE = 9
_CONCAT = 10
_BVADD = 11
_BVOR = 12
_XOR = 13  # boolean xor and bvxor share the dispatch (slots hold 0/1 ints)
_BVSUB = 14
_BVSHL = 15
_BVLSHR = 16
_BVNOT = 17
_BVNEG = 18
_BVMUL = 19
_SEXT = 20
_SLT = 21
_SLE = 22

_OPCODES = {
    T.OP_NOT: _NOT,
    T.OP_AND: _AND,
    T.OP_EQ: _EQ,
    T.OP_ITE: _ITE,
    T.OP_OR: _OR,
    T.OP_BVAND: _BVAND,
    T.OP_EXTRACT: _EXTRACT,
    T.OP_ZEXT: _ZEXT,
    T.OP_ULT: _ULT,
    T.OP_ULE: _ULE,
    T.OP_CONCAT: _CONCAT,
    T.OP_BVADD: _BVADD,
    T.OP_BVOR: _BVOR,
    T.OP_XOR: _XOR,
    T.OP_BVXOR: _XOR,
    T.OP_BVSUB: _BVSUB,
    T.OP_BVSHL: _BVSHL,
    T.OP_BVLSHR: _BVLSHR,
    T.OP_BVNOT: _BVNOT,
    T.OP_BVNEG: _BVNEG,
    T.OP_BVMUL: _BVMUL,
    T.OP_SEXT: _SEXT,
    T.OP_SLT: _SLT,
    T.OP_SLE: _SLE,
}


class CompiledTerm:
    """Term DAGs flattened into one growable postorder bytecode program.

    Layout: ``_template`` is the initial slot array (constants prefilled,
    everything else 0); ``_var_loads`` is the variable prelude — tuples of
    ``(slot, name, mask)`` where ``mask`` is the width mask for bitvector
    variables and ``-1`` for booleans (truthiness load); the parallel
    ``_ops``/``_dest``/``_a1``/``_a2``/``_aux`` lists hold one instruction
    per interior node in postorder, so every operand slot is written before
    it is read.  ``_slot_of`` maps every compiled node to its slot: a root
    added later appends only the nodes no earlier root reached, and
    ``_roots`` lists the slots the caller asked for, in the order asked.
    """

    __slots__ = (
        "_slot_of",
        "_template",
        "_var_loads",
        "_ops",
        "_dest",
        "_a1",
        "_a2",
        "_aux",
        "_roots",
        "_root_index",
        "var_masks",
    )

    def __init__(self, term: Optional[T.Term] = None) -> None:
        self._slot_of: Dict[T.Term, int] = {}
        self._template: List[int] = []
        self._var_loads: List[tuple] = []
        self._ops: List[int] = []
        self._dest: List[int] = []
        self._a1: List[int] = []
        self._a2: List[int] = []
        self._aux: list = []
        self._roots: List[int] = []
        self._root_index: Dict[T.Term, int] = {}
        self.var_masks: Dict[str, int] = {}
        if term is not None:
            self.add_root(term)

    def add_root(self, term: T.Term) -> int:
        """Make ``term`` a root of the program; returns its index into
        :meth:`evaluate_roots`' result (the same index if asked again)."""
        index = self._root_index.get(term)
        if index is not None:
            return index
        slot_of = self._slot_of
        template = self._template
        visited = set()
        stack = [(term, False)]
        while stack:
            t, ready = stack.pop()
            if not ready:
                if t in visited or t in slot_of:
                    continue
                visited.add(t)
                stack.append((t, True))
                stack.extend(
                    (a, False)
                    for a in reversed(t.args)
                    if a not in visited and a not in slot_of
                )
                continue
            slot = len(template)
            template.append(0)
            slot_of[t] = slot
            op = t.op
            if op == T.OP_CONST:
                template[slot] = t.payload
                continue
            if op == T.OP_VAR:
                mask = ((1 << t.width) - 1) if t.is_bv else -1
                self._var_loads.append((slot, t.payload, mask))
                self.var_masks[t.payload] = mask if mask >= 0 else 1
                continue
            opcode = _OPCODES.get(op)
            if opcode is None:  # pragma: no cover - defensive
                raise NotImplementedError(f"compile: unknown op {op}")
            slots = [slot_of[a] for a in t.args]
            a1 = slots[0] if slots else -1
            a2 = slots[1] if len(slots) > 1 else -1
            payload = None
            if opcode in (_AND, _OR):
                payload = tuple(slots)
            elif opcode == _ITE:
                payload = slots[2]
            elif opcode == _CONCAT:
                payload = tuple((s, a.width) for s, a in zip(slots, t.args))
            elif opcode == _EXTRACT:
                hi, lo = t.payload
                payload = (lo, (1 << (hi - lo + 1)) - 1)
            elif opcode == _SEXT:
                child_width = t.args[0].width
                payload = (1 << (child_width - 1), ((1 << t.payload) - 1) << child_width)
            elif opcode == _BVSHL:
                payload = (t.payload, (1 << t.width) - 1)
            elif opcode == _BVLSHR:
                payload = t.payload
            elif opcode in (_BVNOT, _BVNEG, _BVADD, _BVSUB, _BVMUL):
                payload = (1 << t.width) - 1
            elif opcode in (_SLT, _SLE):
                w = t.args[0].width
                payload = (1 << (w - 1), 1 << w)
            self._ops.append(opcode)
            self._dest.append(slot)
            self._a1.append(a1)
            self._a2.append(a2)
            self._aux.append(payload)
        index = self._root_index[term] = len(self._roots)
        self._roots.append(slot_of[term])
        return index

    @property
    def variables(self) -> AbstractSet[str]:
        """Names of every variable some root mentions."""
        return self.var_masks.keys()

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """The first root's value under ``assignment`` (name -> int; missing
        vars are 0): booleans evaluate to 0/1, bitvectors to width-masked
        ints — the semantics ``tests/treewalk_eval.py`` spells out."""
        return self._run(assignment)[self._roots[0]]

    def evaluate_roots(self, assignment: Mapping[str, int]) -> List[int]:
        """Every root's value under ``assignment``, in :meth:`add_root` order."""
        slots = self._run(assignment)
        return [slots[root] for root in self._roots]

    def _run(self, assignment: Mapping[str, int]) -> List[int]:
        slots = self._template[:]
        get = assignment.get
        for slot, name, mask in self._var_loads:
            v = get(name, 0)
            slots[slot] = (v & mask) if mask >= 0 else (1 if v else 0)
        ops = self._ops
        a1 = self._a1
        a2 = self._a2
        aux = self._aux
        dest = self._dest
        for i in range(len(ops)):
            op = ops[i]
            if op == _NOT:
                r = 1 - slots[a1[i]]
            elif op == _AND:
                r = 1
                for s in aux[i]:
                    if not slots[s]:
                        r = 0
                        break
            elif op == _EQ:
                r = 1 if slots[a1[i]] == slots[a2[i]] else 0
            elif op == _ITE:
                r = slots[a2[i]] if slots[a1[i]] else slots[aux[i]]
            elif op == _OR:
                r = 0
                for s in aux[i]:
                    if slots[s]:
                        r = 1
                        break
            elif op == _BVAND:
                r = slots[a1[i]] & slots[a2[i]]
            elif op == _EXTRACT:
                lo, mask = aux[i]
                r = (slots[a1[i]] >> lo) & mask
            elif op == _ZEXT:
                r = slots[a1[i]]
            elif op == _ULT:
                r = 1 if slots[a1[i]] < slots[a2[i]] else 0
            elif op == _ULE:
                r = 1 if slots[a1[i]] <= slots[a2[i]] else 0
            elif op == _CONCAT:
                r = 0
                for s, w in aux[i]:
                    r = (r << w) | slots[s]
            elif op == _BVADD:
                r = (slots[a1[i]] + slots[a2[i]]) & aux[i]
            elif op == _BVOR:
                r = slots[a1[i]] | slots[a2[i]]
            elif op == _XOR:
                r = slots[a1[i]] ^ slots[a2[i]]
            elif op == _BVSUB:
                r = (slots[a1[i]] - slots[a2[i]]) & aux[i]
            elif op == _BVSHL:
                shift, mask = aux[i]
                r = (slots[a1[i]] << shift) & mask
            elif op == _BVLSHR:
                r = slots[a1[i]] >> aux[i]
            elif op == _BVNOT:
                r = ~slots[a1[i]] & aux[i]
            elif op == _BVNEG:
                r = -slots[a1[i]] & aux[i]
            elif op == _BVMUL:
                r = (slots[a1[i]] * slots[a2[i]]) & aux[i]
            elif op == _SEXT:
                sign, ext = aux[i]
                v = slots[a1[i]]
                r = (v | ext) if v & sign else v
            elif op == _SLT:
                sign, modulus = aux[i]
                a = slots[a1[i]]
                b = slots[a2[i]]
                if a & sign:
                    a -= modulus
                if b & sign:
                    b -= modulus
                r = 1 if a < b else 0
            else:  # _SLE
                sign, modulus = aux[i]
                a = slots[a1[i]]
                b = slots[a2[i]]
                if a & sign:
                    a -= modulus
                if b & sign:
                    b -= modulus
                r = 1 if a <= b else 0
            slots[dest[i]] = r
        return slots

    @property
    def size(self) -> int:
        """Number of slots (unique DAG nodes)."""
        return len(self._template)


# Process-wide compile cache.  Hash-consing makes term identity equivalent
# to structural identity, so this is "one compile per term_digest" without
# computing digests.  Entries live as long as the term cache itself.
_COMPILE_CACHE: Dict[T.Term, CompiledTerm] = {}


def compile_term(term: T.Term) -> CompiledTerm:
    """The compiled form of ``term``, compiled at most once per process."""
    compiled = _COMPILE_CACHE.get(term)
    if compiled is None:
        compiled = CompiledTerm(term)
        _COMPILE_CACHE[term] = compiled
    return compiled


def evaluate_compiled(term: T.Term, assignment: Mapping[str, int]) -> int:
    """``term``'s value under ``assignment``, via the compile cache."""
    return compile_term(term).evaluate(assignment)

