"""Term language for the QF_BV solver.

Terms are immutable and hash-consed: building the same term twice returns the
same object, which keeps the bit-blaster's memoisation effective and makes
structural equality an ``is`` check.

Two sorts exist:

* ``BoolSort()`` — propositional values.
* ``BVSort(width)`` — fixed-width unsigned bitvectors (two's complement for
  the signed comparisons).

Concrete evaluation lives in :mod:`repro.smt.compile`; the recursive
reference semantics it is tested against is ``tests/treewalk_eval.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple, Union


@dataclass(frozen=True)
class BoolSort:
    """The sort of propositional terms."""

    def __repr__(self) -> str:
        return "Bool"


@dataclass(frozen=True)
class BVSort:
    """The sort of fixed-width bitvectors."""

    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"bitvector width must be positive, got {self.width}")

    def __repr__(self) -> str:
        return f"BV[{self.width}]"


Sort = Union[BoolSort, BVSort]

# Operator tags.  Grouped by arity/meaning; the bit-blaster dispatches on
# these strings.
OP_VAR = "var"
OP_CONST = "const"
OP_NOT = "not"
OP_AND = "and"
OP_OR = "or"
OP_XOR = "xor"
OP_IMPLIES = "implies"
OP_EQ = "eq"
OP_ITE = "ite"
OP_BVNOT = "bvnot"
OP_BVAND = "bvand"
OP_BVOR = "bvor"
OP_BVXOR = "bvxor"
OP_BVADD = "bvadd"
OP_BVSUB = "bvsub"
OP_BVNEG = "bvneg"
OP_BVMUL = "bvmul"
OP_BVSHL = "bvshl"
OP_BVLSHR = "bvlshr"
OP_CONCAT = "concat"
OP_EXTRACT = "extract"
OP_ZEXT = "zext"
OP_SEXT = "sext"
OP_ULT = "bvult"
OP_ULE = "bvule"
OP_SLT = "bvslt"
OP_SLE = "bvsle"

_BOOL = BoolSort()

# Hash-consing table.  Keyed by (op, args, payload).
_TERM_CACHE: Dict[Tuple, "Term"] = {}


class Term:
    """An immutable, hash-consed SMT term.

    Do not construct directly; use the builder functions (:func:`bv_const`,
    :func:`bv_var`, :func:`bool_var`) and the operator methods / module-level
    combinators.
    """

    __slots__ = ("op", "args", "payload", "sort", "_hash")

    def __new__(cls, op: str, args: Tuple["Term", ...], payload, sort: Sort):
        key = (op, args, payload, sort)
        cached = _TERM_CACHE.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "_hash", hash(key))
        _TERM_CACHE[key] = self
        return self

    def __setattr__(self, _name, _value):  # pragma: no cover - guard rail
        raise AttributeError("Term objects are immutable")

    def __hash__(self) -> int:
        return self._hash

    # Identity equality is correct because of hash-consing.
    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        if not isinstance(self.sort, BVSort):
            raise TypeError(f"term {self!r} is not a bitvector")
        return self.sort.width

    @property
    def is_bool(self) -> bool:
        return isinstance(self.sort, BoolSort)

    @property
    def is_bv(self) -> bool:
        return isinstance(self.sort, BVSort)

    @property
    def is_const(self) -> bool:
        return self.op == OP_CONST

    @property
    def is_var(self) -> bool:
        return self.op == OP_VAR

    @property
    def value(self) -> int:
        """Concrete value of a constant term (``int``; bools are 0/1)."""
        if self.op != OP_CONST:
            raise TypeError(f"term {self!r} is not a constant")
        return self.payload

    @property
    def name(self) -> str:
        if self.op != OP_VAR:
            raise TypeError(f"term {self!r} is not a variable")
        return self.payload

    # ------------------------------------------------------------------
    # Boolean operators
    # ------------------------------------------------------------------
    def __invert__(self) -> "Term":
        if self.is_bool:
            return not_(self)
        return _mk_bv(OP_BVNOT, (self,), self.width)

    def __and__(self, other: "Term") -> "Term":
        if self.is_bool:
            return and_(self, other)
        return _bv_binop(OP_BVAND, self, other)

    def __or__(self, other: "Term") -> "Term":
        if self.is_bool:
            return or_(self, other)
        return _bv_binop(OP_BVOR, self, other)

    def __xor__(self, other: "Term") -> "Term":
        if self.is_bool:
            return xor(self, other)
        return _bv_binop(OP_BVXOR, self, other)

    # ------------------------------------------------------------------
    # Bitvector arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Term":
        return _bv_binop(OP_BVADD, self, _coerce(other, self))

    def __sub__(self, other) -> "Term":
        return _bv_binop(OP_BVSUB, self, _coerce(other, self))

    def __mul__(self, other) -> "Term":
        return _bv_binop(OP_BVMUL, self, _coerce(other, self))

    def __lshift__(self, amount: int) -> "Term":
        return shl(self, amount)

    def __rshift__(self, amount: int) -> "Term":
        return lshr(self, amount)

    # ------------------------------------------------------------------
    # Comparisons (return Bool terms)
    # ------------------------------------------------------------------
    def eq(self, other) -> "Term":
        other = _coerce(other, self)
        return eq(self, other)

    def ne(self, other) -> "Term":
        return not_(self.eq(other))

    def ult(self, other) -> "Term":
        return _cmp(OP_ULT, self, _coerce(other, self))

    def ule(self, other) -> "Term":
        return _cmp(OP_ULE, self, _coerce(other, self))

    def ugt(self, other) -> "Term":
        return _cmp(OP_ULT, _coerce(other, self), self)

    def uge(self, other) -> "Term":
        return _cmp(OP_ULE, _coerce(other, self), self)

    def slt(self, other) -> "Term":
        return _cmp(OP_SLT, self, _coerce(other, self))

    def sle(self, other) -> "Term":
        return _cmp(OP_SLE, self, _coerce(other, self))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def extract(self, hi: int, lo: int) -> "Term":
        return extract(self, hi, lo)

    def zext(self, extra: int) -> "Term":
        return zext(self, extra)

    def sext(self, extra: int) -> "Term":
        return sext(self, extra)

    def __repr__(self) -> str:
        if self.op == OP_CONST:
            if self.is_bool:
                return "true" if self.payload else "false"
            return f"#b{self.payload:0{self.width}b}"
        if self.op == OP_VAR:
            return str(self.payload)
        if self.op == OP_EXTRACT:
            hi, lo = self.payload
            return f"(extract[{hi}:{lo}] {self.args[0]!r})"
        inner = " ".join(repr(a) for a in self.args)
        return f"({self.op} {inner})"


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

TRUE = Term(OP_CONST, (), 1, _BOOL)
FALSE = Term(OP_CONST, (), 0, _BOOL)


def bv_const(value: int, width: int) -> Term:
    """A bitvector constant, truncated to ``width`` bits."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return Term(OP_CONST, (), value & ((1 << width) - 1), BVSort(width))


def bv_var(name: str, width: int) -> Term:
    """A free bitvector variable."""
    return Term(OP_VAR, (), name, BVSort(width))


def bool_var(name: str) -> Term:
    """A free boolean variable."""
    return Term(OP_VAR, (), name, _BOOL)


def bool_const(value: bool) -> Term:
    return TRUE if value else FALSE


def _coerce(value, like: Term) -> Term:
    """Coerce a Python int to a constant of the same sort as ``like``."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return bool_const(value)
    if isinstance(value, int):
        if not like.is_bv:
            raise TypeError("cannot coerce int against a boolean term")
        return bv_const(value, like.width)
    raise TypeError(f"cannot use {value!r} as a term")


def _require_bool(term: Term, ctx: str) -> None:
    if not term.is_bool:
        raise TypeError(f"{ctx} expects boolean terms, got {term.sort!r}")


def _require_same_width(a: Term, b: Term, ctx: str) -> None:
    if not (a.is_bv and b.is_bv and a.width == b.width):
        raise TypeError(f"{ctx} expects same-width bitvectors, got {a.sort!r} and {b.sort!r}")


def _mk_bv(op: str, args: Tuple[Term, ...], width: int, payload=None) -> Term:
    return Term(op, args, payload, BVSort(width))


def _bv_binop(op: str, a: Term, b) -> Term:
    b = _coerce(b, a)
    _require_same_width(a, b, op)
    return _mk_bv(op, (a, b), a.width)


def _cmp(op: str, a: Term, b: Term) -> Term:
    _require_same_width(a, b, op)
    return Term(op, (a, b), None, _BOOL)


def not_(a: Term) -> Term:
    _require_bool(a, "not")
    if a.op == OP_CONST:
        return FALSE if a.payload else TRUE
    if a.op == OP_NOT:
        return a.args[0]
    return Term(OP_NOT, (a,), None, _BOOL)


def _flatten(op: str, terms: Iterable[Term]) -> Tuple[Term, ...]:
    out = []
    for t in terms:
        if t.op == op:
            out.extend(t.args)
        else:
            out.append(t)
    return tuple(out)


def and_(*terms: Term) -> Term:
    """N-ary conjunction with constant propagation and flattening."""
    flat = []
    for t in _flatten(OP_AND, terms):
        _require_bool(t, "and")
        if t is FALSE:
            return FALSE
        if t is TRUE:
            continue
        flat.append(t)
    # Deduplicate while preserving order.
    seen = set()
    uniq = []
    for t in flat:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    if not uniq:
        return TRUE
    if len(uniq) == 1:
        return uniq[0]
    return Term(OP_AND, tuple(uniq), None, _BOOL)


def or_(*terms: Term) -> Term:
    """N-ary disjunction with constant propagation and flattening."""
    flat = []
    for t in _flatten(OP_OR, terms):
        _require_bool(t, "or")
        if t is TRUE:
            return TRUE
        if t is FALSE:
            continue
        flat.append(t)
    seen = set()
    uniq = []
    for t in flat:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    if not uniq:
        return FALSE
    if len(uniq) == 1:
        return uniq[0]
    return Term(OP_OR, tuple(uniq), None, _BOOL)


def xor(a: Term, b: Term) -> Term:
    _require_bool(a, "xor")
    _require_bool(b, "xor")
    if a.op == OP_CONST and b.op == OP_CONST:
        return bool_const(bool(a.payload) != bool(b.payload))
    if a is TRUE:
        return not_(b)
    if b is TRUE:
        return not_(a)
    if a is FALSE:
        return b
    if b is FALSE:
        return a
    if a is b:
        return FALSE
    return Term(OP_XOR, (a, b), None, _BOOL)


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def eq(a: Term, b: Term) -> Term:
    """Equality over same-sort terms (bool or bitvector)."""
    if a.is_bool and b.is_bool:
        if a is b:
            return TRUE
        if a.op == OP_CONST and b.op == OP_CONST:
            return bool_const(a.payload == b.payload)
        if a is TRUE:
            return b
        if b is TRUE:
            return a
        if a is FALSE:
            return not_(b)
        if b is FALSE:
            return not_(a)
        return Term(OP_EQ, (a, b), None, _BOOL)
    _require_same_width(a, b, "eq")
    if a is b:
        return TRUE
    if a.op == OP_CONST and b.op == OP_CONST:
        return bool_const(a.payload == b.payload)
    return Term(OP_EQ, (a, b), None, _BOOL)


def ite(cond: Term, then: Term, els: Term) -> Term:
    """If-then-else over booleans or same-width bitvectors."""
    _require_bool(cond, "ite")
    if then.sort != els.sort:
        raise TypeError(f"ite branch sorts differ: {then.sort!r} vs {els.sort!r}")
    if cond is TRUE:
        return then
    if cond is FALSE:
        return els
    if then is els:
        return then
    if then.is_bool:
        # (ite c true false) == c, (ite c false true) == !c
        if then is TRUE and els is FALSE:
            return cond
        if then is FALSE and els is TRUE:
            return not_(cond)
        return Term(OP_ITE, (cond, then, els), None, _BOOL)
    return Term(OP_ITE, (cond, then, els), None, then.sort)


def concat(*parts: Term) -> Term:
    """Concatenation; the first argument holds the most-significant bits."""
    if not parts:
        raise ValueError("concat requires at least one part")
    for p in parts:
        if not p.is_bv:
            raise TypeError("concat expects bitvector terms")
    if len(parts) == 1:
        return parts[0]
    total = sum(p.width for p in parts)
    if all(p.op == OP_CONST for p in parts):
        value = 0
        for p in parts:
            value = (value << p.width) | p.payload
        return bv_const(value, total)
    return _mk_bv(OP_CONCAT, tuple(parts), total)


def extract(term: Term, hi: int, lo: int) -> Term:
    """Bits ``hi`` down to ``lo`` inclusive (LSB is bit 0)."""
    if not term.is_bv:
        raise TypeError("extract expects a bitvector term")
    if not (0 <= lo <= hi < term.width):
        raise ValueError(f"extract[{hi}:{lo}] out of range for width {term.width}")
    if lo == 0 and hi == term.width - 1:
        return term
    if term.op == OP_CONST:
        return bv_const(term.payload >> lo, hi - lo + 1)
    return _mk_bv(OP_EXTRACT, (term,), hi - lo + 1, payload=(hi, lo))


def zext(term: Term, extra: int) -> Term:
    """Zero-extend by ``extra`` bits."""
    if extra < 0:
        raise ValueError("zext amount must be non-negative")
    if extra == 0:
        return term
    if term.op == OP_CONST:
        return bv_const(term.payload, term.width + extra)
    return _mk_bv(OP_ZEXT, (term,), term.width + extra, payload=extra)


def sext(term: Term, extra: int) -> Term:
    """Sign-extend by ``extra`` bits."""
    if extra < 0:
        raise ValueError("sext amount must be non-negative")
    if extra == 0:
        return term
    if term.op == OP_CONST:
        sign = (term.payload >> (term.width - 1)) & 1
        if sign:
            ext = ((1 << extra) - 1) << term.width
            return bv_const(term.payload | ext, term.width + extra)
        return bv_const(term.payload, term.width + extra)
    return _mk_bv(OP_SEXT, (term,), term.width + extra, payload=extra)


def shl(term: Term, amount: int) -> Term:
    """Logical shift left by a constant amount."""
    if amount < 0:
        raise ValueError("shift amount must be non-negative")
    if amount == 0:
        return term
    if term.op == OP_CONST:
        return bv_const(term.payload << amount, term.width)
    return _mk_bv(OP_BVSHL, (term,), term.width, payload=amount)


def lshr(term: Term, amount: int) -> Term:
    """Logical shift right by a constant amount."""
    if amount < 0:
        raise ValueError("shift amount must be non-negative")
    if amount == 0:
        return term
    if term.op == OP_CONST:
        return bv_const(term.payload >> amount, term.width)
    return _mk_bv(OP_BVLSHR, (term,), term.width, payload=amount)


# Memoised free-variable sets.  Terms are hash-consed and immutable, so a
# term's variable set never changes; the packet generator queries the same
# (large) goal condition several times per goal, and across goals that share
# trace subterms, which makes the repeated DAG walks pure waste.  Keyed on
# term identity; entries live as long as the term cache itself.
_FREE_VARS_CACHE: Dict["Term", Mapping[str, Sort]] = {}


def free_variables(term: Term) -> Mapping[str, Sort]:
    """All free variables in ``term`` (name -> sort), as a read-only view
    of the memoised mapping."""
    cached = _FREE_VARS_CACHE.get(term)
    if cached is None:
        out: Dict[str, Sort] = {}
        seen = set()
        stack = [term]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            if t.op == OP_VAR:
                out[t.payload] = t.sort
            stack.extend(t.args)
        cached = _FREE_VARS_CACHE[term] = MappingProxyType(out)
    return cached


# Structural digests.  Unlike ``hash()`` (randomised per process by
# PYTHONHASHSEED), these are stable across processes and runs, so they can
# key on-disk caches.  Computed bottom-up over the DAG with per-node
# memoisation: shared subterms are digested once, ever.
_DIGEST_CACHE: Dict["Term", str] = {}


def term_digest(term: Term) -> str:
    """A deterministic SHA-256 digest of the term's structure."""
    cached = _DIGEST_CACHE.get(term)
    if cached is not None:
        return cached
    stack = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if t in _DIGEST_CACHE:
            continue
        if not ready:
            stack.append((t, True))
            stack.extend((a, False) for a in t.args if a not in _DIGEST_CACHE)
        else:
            h = hashlib.sha256()
            h.update(t.op.encode())
            h.update(repr(t.payload).encode())
            h.update(repr(t.sort).encode())
            for a in t.args:
                h.update(_DIGEST_CACHE[a].encode())
            _DIGEST_CACHE[t] = h.hexdigest()
    return _DIGEST_CACHE[term]


# Convenience alias used throughout the codebase.
BV = bv_const
