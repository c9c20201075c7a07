"""Bit-blasting of QF_BV terms into a :class:`SatSolver`.

Every boolean term maps to a single SAT literal; every bitvector term maps to
a list of SAT literals, least-significant bit first.  The encoding is
memoised per term (terms are hash-consed), so shared subterms are encoded
once — essential for p4-symbolic, whose guard expressions share the
per-entry match conditions heavily.

:class:`StructuralBitBlaster` is the one encoder.  It shrinks the formula
before the solver sees it three ways: constant short-circuiting at the
literal layer (AND/OR/ITE/XOR/adder chains fold TRUE/FALSE literals instead
of emitting gates), gate-level structural hashing (an
``(op, normalized-arg-lits) -> output-lit`` cache, so identical gates
reached through different terms encode once), and polarity-aware
Plaisted–Greenbaum encoding that emits only the implication direction each
gate is actually used in.  See DESIGN.md ("The CNF layer") for the polarity
bookkeeping and the soundness argument.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.smt import terms as T
from repro.smt.sat import SatSolver, pos_lit

# Polarity masks: how the literal a subroutine returns may be *used* by its
# caller.  POS = the literal can be required true (so the clauses deriving
# its definition downward — output implies inputs — must exist); NEG = it
# can be required false (the upward direction must exist); BOTH = both.
POS = 1
NEG = 2
BOTH = 3


def _swap_pol(pol: int) -> int:
    """Swap the POS and NEG bits (the polarity of ``lit ^ 1``)."""
    return ((pol << 1) | (pol >> 1)) & BOTH


class StructuralBitBlaster:
    """Clause-economical encoder: folding, hashing, Plaisted–Greenbaum.

    Public surface, as used by :class:`repro.smt.solver.Solver`:
    ``assert_term`` / ``encode_bool`` (assumption literals) /
    ``variable_bits``.

    Soundness of the polarity bookkeeping: the emitted clause set always
    lies between the Plaisted–Greenbaum subset required by each gate's
    accumulated use polarities and the full Tseitin set.  Any set in that
    range is equisatisfiable with the original formula — a model of the
    original extends to the full Tseitin valuation, which satisfies every
    definitional clause; an unsatisfiable original already makes the PG
    subset unsatisfiable.

    Assumption literals are encoded ``POS`` only, like asserted roots: a
    check only ever requires its assumption literal *true*.  A complement
    is asked as ``T.not_(a)``, a different term whose ``POS`` encoding is
    ``a``'s ``NEG`` one, so the polarity masks emit the missing direction
    exactly when a caller needs it.

    Gate sharing is polarity-correct by construction: a cached gate records
    the directions already emitted (a ``[lit, emitted-mask]`` entry); a
    later use in a new polarity emits exactly the missing direction, and
    phase normalization (XOR/ITE store positive-phase inputs and return a
    possibly-negated output) swaps the requested polarity in step with the
    output negation, so child guarantees always match the emitted clauses.
    """

    def __init__(self, solver: SatSolver) -> None:
        self.sat = solver
        self._bool_cache: Dict[T.Term, int] = {}
        # term -> polarity mask this term's DAG is already encoded for.
        self._bool_pol: Dict[T.Term, int] = {}
        # Bitvector internals always encode BOTH directions (their gates sit
        # under arithmetic/equality structure used in mixed polarity), so
        # the bv cache needs no polarity bookkeeping.
        self._bv_cache: Dict[T.Term, List[int]] = {}
        self._var_bits: Dict[str, List[int]] = {}
        self._true_lit: int | None = None
        # Structural gate cache: normalized key -> [output_lit, emitted_mask].
        self._gates: Dict[Tuple, List[int]] = {}
        # Gate lookups answered by the cache instead of a fresh variable.
        self.gates_shared = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def assert_term(self, term: T.Term) -> None:
        """Assert that a boolean term is true."""
        lit = self.encode_bool(term, POS)
        self.sat.add_clause([lit])

    def variable_bits(self, name: str) -> List[int] | None:
        """SAT variables backing a bitvector variable, LSB first."""
        return self._var_bits.get(name)

    # ------------------------------------------------------------------
    # Literal-layer primitives: constant folding + structural hashing
    # ------------------------------------------------------------------
    def _const_lit(self, value: bool) -> int:
        """A literal constrained to the given constant value."""
        if self._true_lit is None:
            v = self.sat.new_var()
            self._true_lit = pos_lit(v)
            self.sat.add_clause([self._true_lit])
        return self._true_lit if value else self._true_lit ^ 1

    def _is_const(self, lit: int, value: bool) -> bool:
        t = self._true_lit
        return t is not None and lit == (t if value else t ^ 1)

    def _fresh(self) -> int:
        return pos_lit(self.sat.new_var())

    def _gate(self, key: Tuple, pol: int, emit) -> int:
        """The cached output literal for ``key``, with the directions in
        ``pol`` guaranteed emitted (missing ones are added now)."""
        entry = self._gates.get(key)
        if entry is None:
            entry = [self._fresh(), 0]
            self._gates[key] = entry
        else:
            self.gates_shared += 1
        need = pol & ~entry[1]
        if need:
            entry[1] |= need
            emit(entry[0], key, need)
        return entry[0]

    # -- AND / OR ------------------------------------------------------
    def _and_lits(self, lits: List[int], pol: int) -> int:
        out: List[int] = []
        seen = set()
        for lit in lits:
            if self._is_const(lit, True) or lit in seen:
                continue  # TRUE and duplicates fold away
            if self._is_const(lit, False) or (lit ^ 1) in seen:
                return self._const_lit(False)  # FALSE / complementary pair
            seen.add(lit)
            out.append(lit)
        if not out:
            return self._const_lit(True)
        if len(out) == 1:
            return out[0]
        return self._gate(("and", tuple(sorted(out))), pol, self._emit_and_dir)

    def _emit_and_dir(self, g: int, key: Tuple, need: int) -> None:
        args = key[1]
        add = self.sat.add_clause
        if need & POS:  # g -> each arg
            for lit in args:
                add([g ^ 1, lit])
        if need & NEG:  # all args -> g
            add([g] + [lit ^ 1 for lit in args])

    def _or_lits(self, lits: List[int], pol: int) -> int:
        # De Morgan onto the AND gate cache: OR(a, b) and NOT(AND(!a, !b))
        # share one gate, with the polarity swapped through the negation.
        return self._and_lits([lit ^ 1 for lit in lits], _swap_pol(pol)) ^ 1

    # -- XOR / IFF -----------------------------------------------------
    def _xor_lits(self, a: int, b: int, pol: int) -> int:
        if self._is_const(a, True):
            return b ^ 1
        if self._is_const(a, False):
            return b
        if self._is_const(b, True):
            return a ^ 1
        if self._is_const(b, False):
            return a
        if a == b:
            return self._const_lit(False)
        if a == (b ^ 1):
            return self._const_lit(True)
        # Phase-normalize: XOR(a, b) == XOR(a^1, b^1) == NOT XOR(a^1, b);
        # store the gate over positive-phase inputs in sorted order and
        # fold the parity into the returned literal.
        phase = (a & 1) ^ (b & 1)
        a0 = a & ~1
        b0 = b & ~1
        if a0 > b0:
            a0, b0 = b0, a0
        gpol = pol if phase == 0 else _swap_pol(pol)
        g = self._gate(("xor", a0, b0), gpol, self._emit_xor_dir)
        return g ^ phase

    def _emit_xor_dir(self, g: int, key: Tuple, need: int) -> None:
        _, a, b = key
        add = self.sat.add_clause
        if need & POS:  # g -> (a xor b)
            add([g ^ 1, a, b])
            add([g ^ 1, a ^ 1, b ^ 1])
        if need & NEG:  # (a xor b) -> g
            add([g, a ^ 1, b])
            add([g, a, b ^ 1])

    def _iff_lits(self, a: int, b: int, pol: int) -> int:
        return self._xor_lits(a, b ^ 1, pol)

    # -- ITE -----------------------------------------------------------
    def _ite_lits(self, c: int, t: int, e: int, pol: int) -> int:
        if self._is_const(c, True):
            return t
        if self._is_const(c, False):
            return e
        if t == e:
            return t
        if c & 1:  # normalize to a positive condition literal
            c, t, e = c ^ 1, e, t
        if self._is_const(t, True):
            return self._or_lits([c, e], pol)
        if self._is_const(t, False):
            return self._and_lits([c ^ 1, e], pol)
        if self._is_const(e, True):
            return self._or_lits([c ^ 1, t], pol)
        if self._is_const(e, False):
            return self._and_lits([c, t], pol)
        if t == c:  # (c ? c : e) == c | e
            return self._or_lits([c, e], pol)
        if t == (c ^ 1):  # (c ? !c : e) == !c & e
            return self._and_lits([c ^ 1, e], pol)
        if e == c:  # (c ? t : c) == c & t
            return self._and_lits([c, t], pol)
        if e == (c ^ 1):  # (c ? t : !c) == !c | t
            return self._or_lits([c ^ 1, t], pol)
        if t == (e ^ 1):  # (c ? !e : e) == c xor e
            return self._xor_lits(c, e, pol)
        # Phase-normalize on the then-branch: ite(c, t, e) == !ite(c, !t, !e).
        phase = t & 1
        if phase:
            t ^= 1
            e ^= 1
        gpol = pol if phase == 0 else _swap_pol(pol)
        g = self._gate(("ite", c, t, e), gpol, self._emit_ite_dir)
        return g ^ phase

    def _emit_ite_dir(self, g: int, key: Tuple, need: int) -> None:
        _, c, t, e = key
        add = self.sat.add_clause
        if need & POS:  # g -> (c ? t : e)
            add([g ^ 1, c ^ 1, t])
            add([g ^ 1, c, e])
        if need & NEG:  # (c ? t : e) -> g
            add([g, c ^ 1, t ^ 1])
            add([g, c, e ^ 1])

    # -- Arithmetic primitives ----------------------------------------
    def _full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Returns (sum, carry-out); constants collapse through the folds."""
        s = self._xor_lits(self._xor_lits(a, b, BOTH), cin, BOTH)
        carry = self._or_lits(
            [
                self._and_lits([a, b], BOTH),
                self._and_lits([a, cin], BOTH),
                self._and_lits([b, cin], BOTH),
            ],
            BOTH,
        )
        return s, carry

    # ------------------------------------------------------------------
    # Boolean encoding
    # ------------------------------------------------------------------
    def encode_bool(self, term: T.Term, pol: int = BOTH) -> int:
        cached = self._bool_cache.get(term)
        if cached is not None and not (pol & ~self._bool_pol[term]):
            return cached
        # A cache hit with an insufficient polarity mask falls through: the
        # re-dispatch recurses the same deterministic path (cheap — child
        # masks mostly cover), and the gate caches emit exactly the missing
        # directions.  The resulting literal is identical by construction.
        op = term.op
        if op == T.OP_CONST:
            lit = self._const_lit(bool(term.payload))
            pol = BOTH
        elif op == T.OP_VAR:
            if cached is not None:
                return cached  # polarity is irrelevant for inputs
            lit = self._fresh()
            self._var_bits.setdefault(term.payload, [lit])
            pol = BOTH
        elif op == T.OP_NOT:
            lit = self.encode_bool(term.args[0], _swap_pol(pol)) ^ 1
        elif op == T.OP_AND:
            lit = self._and_lits([self.encode_bool(a, pol) for a in term.args], pol)
        elif op == T.OP_OR:
            lit = self._or_lits([self.encode_bool(a, pol) for a in term.args], pol)
        elif op == T.OP_XOR:
            lit = self._xor_lits(
                self.encode_bool(term.args[0], BOTH),
                self.encode_bool(term.args[1], BOTH),
                pol,
            )
        elif op == T.OP_ITE:
            lit = self._ite_lits(
                self.encode_bool(term.args[0], BOTH),
                self.encode_bool(term.args[1], pol),
                self.encode_bool(term.args[2], pol),
                pol,
            )
        elif op == T.OP_EQ:
            a, b = term.args
            if a.is_bool:
                lit = self._iff_lits(
                    self.encode_bool(a, BOTH), self.encode_bool(b, BOTH), pol
                )
            else:
                abits = self.encode_bv(a)
                bbits = self.encode_bv(b)
                lit = self._and_lits(
                    [
                        self._iff_lits(x, y, pol)
                        for x, y in zip(abits, bbits, strict=True)
                    ],
                    pol,
                )
        elif op in (T.OP_ULT, T.OP_ULE):
            lit = self._encode_unsigned_cmp(
                term.args[0], term.args[1], strict=op == T.OP_ULT, pol=pol
            )
        elif op in (T.OP_SLT, T.OP_SLE):
            lit = self._encode_signed_cmp(
                term.args[0], term.args[1], strict=op == T.OP_SLT, pol=pol
            )
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"encode_bool: unknown op {op}")
        self._bool_cache[term] = lit
        self._bool_pol[term] = self._bool_pol.get(term, 0) | pol
        return lit

    def _encode_unsigned_cmp(self, a: T.Term, b: T.Term, strict: bool, pol: int) -> int:
        abits = self.encode_bv(a)
        bbits = self.encode_bv(b)
        # result starts as (not strict) for the empty suffix, then from LSB to
        # MSB: result = (a_i < b_i) or (a_i == b_i and result).  Every gate
        # sits positively under the chain, so the use polarity threads
        # straight through; comparisons against constants fold almost
        # entirely (same == x or !x, less == !x or FALSE per bit).
        result = self._const_lit(not strict)
        for x, y in zip(abits, bbits, strict=True):
            less = self._and_lits([x ^ 1, y], pol)
            same = self._iff_lits(x, y, pol)
            result = self._or_lits([less, self._and_lits([same, result], pol)], pol)
        return result

    def _encode_signed_cmp(self, a: T.Term, b: T.Term, strict: bool, pol: int) -> int:
        abits = self.encode_bv(a)
        bbits = self.encode_bv(b)
        asign, bsign = abits[-1], bbits[-1]
        unsigned = self._const_lit(not strict)
        for x, y in zip(abits[:-1], bbits[:-1], strict=True):
            less = self._and_lits([x ^ 1, y], pol)
            same = self._iff_lits(x, y, pol)
            unsigned = self._or_lits(
                [less, self._and_lits([same, unsigned], pol)], pol
            )
        # a < b  iff  (a negative, b non-negative) or (same sign and
        # unsigned-compare of the low bits)
        neg_pos = self._and_lits([asign, bsign ^ 1], pol)
        same_sign = self._iff_lits(asign, bsign, pol)
        return self._or_lits(
            [neg_pos, self._and_lits([same_sign, unsigned], pol)], pol
        )

    # ------------------------------------------------------------------
    # Bitvector encoding (always bidirectional below the boolean skeleton)
    # ------------------------------------------------------------------
    def encode_bv(self, term: T.Term) -> List[int]:
        cached = self._bv_cache.get(term)
        if cached is not None:
            return cached
        op = term.op
        width = term.width
        if op == T.OP_CONST:
            bits = [self._const_lit(bool((term.payload >> i) & 1)) for i in range(width)]
        elif op == T.OP_VAR:
            bits = [self._fresh() for _ in range(width)]
            self._var_bits.setdefault(term.payload, bits)
        elif op == T.OP_BVNOT:
            bits = [b ^ 1 for b in self.encode_bv(term.args[0])]
        elif op == T.OP_BVAND:
            bits = [
                self._and_lits([x, y], BOTH)
                for x, y in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1]), strict=True
                )
            ]
        elif op == T.OP_BVOR:
            bits = [
                self._or_lits([x, y], BOTH)
                for x, y in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1]), strict=True
                )
            ]
        elif op == T.OP_BVXOR:
            bits = [
                self._xor_lits(x, y, BOTH)
                for x, y in zip(
                    self.encode_bv(term.args[0]), self.encode_bv(term.args[1]), strict=True
                )
            ]
        elif op == T.OP_BVADD:
            bits = self._encode_add(
                self.encode_bv(term.args[0]), self.encode_bv(term.args[1]), carry_in=False
            )
        elif op == T.OP_BVSUB:
            # a - b == a + ~b + 1
            bbits = [b ^ 1 for b in self.encode_bv(term.args[1])]
            bits = self._encode_add(self.encode_bv(term.args[0]), bbits, carry_in=True)
        elif op == T.OP_BVNEG:
            bbits = [b ^ 1 for b in self.encode_bv(term.args[0])]
            zero = [self._const_lit(False)] * width
            bits = self._encode_add(zero, bbits, carry_in=True)
        elif op == T.OP_BVMUL:
            bits = self._encode_mul(self.encode_bv(term.args[0]), self.encode_bv(term.args[1]))
        elif op == T.OP_BVSHL:
            child = self.encode_bv(term.args[0])
            amount = term.payload
            bits = [self._const_lit(False)] * min(amount, width) + child[: max(width - amount, 0)]
        elif op == T.OP_BVLSHR:
            child = self.encode_bv(term.args[0])
            amount = term.payload
            bits = child[amount:] + [self._const_lit(False)] * min(amount, width)
        elif op == T.OP_CONCAT:
            bits = []
            for part in reversed(term.args):  # last arg holds the LSBs
                bits.extend(self.encode_bv(part))
        elif op == T.OP_EXTRACT:
            hi, lo = term.payload
            bits = self.encode_bv(term.args[0])[lo : hi + 1]
        elif op == T.OP_ZEXT:
            bits = self.encode_bv(term.args[0]) + [self._const_lit(False)] * term.payload
        elif op == T.OP_SEXT:
            child = self.encode_bv(term.args[0])
            bits = child + [child[-1]] * term.payload
        elif op == T.OP_ITE:
            # Guarded-command states nest one ite per table entry through the
            # *else* branch; walk that chain iteratively (a 1300-entry table
            # would otherwise recurse 1300 frames deep) and encode from the
            # innermost default outwards.
            chain = [term]
            tail = term.args[2]
            while (
                tail.op == T.OP_ITE
                and tail.is_bv
                and tail not in self._bv_cache
            ):
                chain.append(tail)
                tail = tail.args[2]
            bits = self.encode_bv(tail)
            for node in reversed(chain):
                c = self.encode_bool(node.args[0], BOTH)
                tbits = self.encode_bv(node.args[1])
                bits = [
                    self._ite_lits(c, x, y, BOTH)
                    for x, y in zip(tbits, bits, strict=True)
                ]
                self._bv_cache[node] = bits
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"encode_bv: unknown op {op}")
        assert len(bits) == width, f"width mismatch encoding {term!r}"
        self._bv_cache[term] = bits
        return bits

    def _encode_add(self, abits: List[int], bbits: List[int], carry_in: bool) -> List[int]:
        carry = self._const_lit(carry_in)
        out = []
        for x, y in zip(abits, bbits, strict=True):
            s, carry = self._full_adder(x, y, carry)
            out.append(s)
        return out

    def _encode_mul(self, abits: List[int], bbits: List[int]) -> List[int]:
        width = len(abits)
        acc = [self._const_lit(False)] * width
        for i, b in enumerate(bbits):
            # Partial product: (a << i) AND b, added into the accumulator.
            partial = [self._const_lit(False)] * i + [
                self._and_lits([a, b], BOTH) for a in abits[: width - i]
            ]
            acc = self._encode_add(acc, partial, carry_in=False)
        return acc
