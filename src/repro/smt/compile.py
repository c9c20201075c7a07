"""Compiled concrete evaluation of term DAGs.

:func:`repro.smt.terms.evaluate` interprets a term by recursive descent:
every node pays a string-keyed op dispatch, a per-call memo-dict probe, and
a Python frame.  The hot concrete-evaluation paths — goal subsumption
(every goal condition against every prior witness), model evaluation, and
the semantic passes' reachability prefilters — evaluate the *same* large
condition thousands of times under different assignments, so the per-node
interpretation overhead dominates.

This module flattens a term DAG once into postorder bytecode: parallel flat
arrays of integer opcodes and argument *slot indices*, one slot per unique
subterm, executed by a single tight loop.  Constants are folded into the
initial slot template at compile time and variables load through a prelude
table, so the dispatch loop only ever sees interior operators.  Width
masks, sign bits, and extract offsets are precomputed into the instruction
payloads.

Compilation happens once per term and is cached process-wide.  Terms are
hash-consed (same structure ⇒ same object — see ``terms._TERM_CACHE``), so
keying the cache on term identity is exactly "compiled once per
``term_digest``" without paying a SHA-256 walk per lookup.

The tree-walking ``terms.evaluate`` is kept unchanged as the independent
reference semantics; ``tests/test_smt_compile.py`` holds a randomized
equivalence guard between the two.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping

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
    """A term DAG flattened into postorder bytecode.

    Layout: ``_template`` is the initial slot array (constants prefilled,
    everything else 0); ``_var_loads`` is the variable prelude — tuples of
    ``(slot, name, mask)`` where ``mask`` is the width mask for bitvector
    variables and ``-1`` for booleans (truthiness load); the parallel
    ``_ops``/``_dest``/``_a1``/``_a2``/``_aux`` tuples hold one instruction
    per interior node in postorder, so every operand slot is written before
    it is read.
    """

    __slots__ = (
        "_template",
        "_var_loads",
        "_ops",
        "_dest",
        "_a1",
        "_a2",
        "_aux",
        "_root",
        "variables",
        "var_masks",
    )

    def __init__(self, term: T.Term) -> None:
        slot_of: Dict[T.Term, int] = {}
        template = []
        var_loads = []
        ops = []
        dest = []
        arg1 = []
        arg2 = []
        aux = []
        var_masks: Dict[str, int] = {}

        visited = set()
        stack = [(term, False)]
        while stack:
            t, ready = stack.pop()
            if not ready:
                if t in visited:
                    continue
                visited.add(t)
                stack.append((t, True))
                stack.extend(
                    (a, False) for a in reversed(t.args) if a not in visited
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
                var_loads.append((slot, t.payload, mask))
                var_masks[t.payload] = mask if mask >= 0 else 1
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
            ops.append(opcode)
            dest.append(slot)
            arg1.append(a1)
            arg2.append(a2)
            aux.append(payload)

        self._template = template
        self._var_loads = tuple(var_loads)
        self._ops = tuple(ops)
        self._dest = tuple(dest)
        self._a1 = tuple(arg1)
        self._a2 = tuple(arg2)
        self._aux = tuple(aux)
        self._root = slot_of[term]
        self.variables: FrozenSet[str] = frozenset(var_masks)
        self.var_masks = var_masks

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        """Evaluate under ``assignment`` (name -> int; missing vars are 0).

        Agrees with :func:`repro.smt.terms.evaluate` on every term:
        booleans evaluate to 0/1, bitvectors to width-masked ints.
        """
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
        return slots[self._root]

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
    """Drop-in replacement for :func:`terms.evaluate` via the compile cache."""
    return compile_term(term).evaluate(assignment)

