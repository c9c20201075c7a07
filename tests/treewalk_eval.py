"""The tree-walk evaluator: the reference semantics of the term language.

Interprets a term by recursive descent, one Python frame and one op-name
dispatch per node.  Production evaluates terms through
:mod:`repro.smt.compile` only; this module is what the compiled evaluator,
the simplifier and the SAT pipeline's models are checked against — it
shares no code with any of them, and the solver never consults it.
"""

from typing import Dict, Mapping

from repro.smt import terms as T


def _to_signed(value: int, width: int) -> int:
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


def evaluate(term: T.Term, assignment: Mapping[str, int]) -> int:
    """Evaluate ``term`` under ``assignment`` (variable name -> int value).

    Booleans evaluate to 0/1.  Missing variables default to 0, matching the
    solver's model completion for don't-care variables.
    """
    cache: Dict[T.Term, int] = {}

    def go(t: T.Term) -> int:
        hit = cache.get(t)
        if hit is not None:
            return hit
        op = t.op
        if op == T.OP_CONST:
            result = t.payload
        elif op == T.OP_VAR:
            result = assignment.get(t.payload, 0)
            if t.is_bv:
                result &= (1 << t.width) - 1
            else:
                result = 1 if result else 0
        elif op == T.OP_NOT:
            result = 1 - go(t.args[0])
        elif op == T.OP_AND:
            result = 1 if all(go(a) for a in t.args) else 0
        elif op == T.OP_OR:
            result = 1 if any(go(a) for a in t.args) else 0
        elif op == T.OP_XOR:
            result = go(t.args[0]) ^ go(t.args[1])
        elif op == T.OP_EQ:
            result = 1 if go(t.args[0]) == go(t.args[1]) else 0
        elif op == T.OP_ITE:
            result = go(t.args[1]) if go(t.args[0]) else go(t.args[2])
        elif op == T.OP_BVNOT:
            result = ~go(t.args[0]) & ((1 << t.width) - 1)
        elif op == T.OP_BVAND:
            result = go(t.args[0]) & go(t.args[1])
        elif op == T.OP_BVOR:
            result = go(t.args[0]) | go(t.args[1])
        elif op == T.OP_BVXOR:
            result = go(t.args[0]) ^ go(t.args[1])
        elif op == T.OP_BVADD:
            result = (go(t.args[0]) + go(t.args[1])) & ((1 << t.width) - 1)
        elif op == T.OP_BVSUB:
            result = (go(t.args[0]) - go(t.args[1])) & ((1 << t.width) - 1)
        elif op == T.OP_BVNEG:
            result = (-go(t.args[0])) & ((1 << t.width) - 1)
        elif op == T.OP_BVMUL:
            result = (go(t.args[0]) * go(t.args[1])) & ((1 << t.width) - 1)
        elif op == T.OP_BVSHL:
            result = (go(t.args[0]) << t.payload) & ((1 << t.width) - 1)
        elif op == T.OP_BVLSHR:
            result = go(t.args[0]) >> t.payload
        elif op == T.OP_CONCAT:
            result = 0
            for part in t.args:
                result = (result << part.width) | go(part)
        elif op == T.OP_EXTRACT:
            hi, lo = t.payload
            result = (go(t.args[0]) >> lo) & ((1 << (hi - lo + 1)) - 1)
        elif op == T.OP_ZEXT:
            result = go(t.args[0])
        elif op == T.OP_SEXT:
            child = t.args[0]
            val = go(child)
            sign = (val >> (child.width - 1)) & 1
            if sign:
                val |= ((1 << t.payload) - 1) << child.width
            result = val
        elif op == T.OP_ULT:
            result = 1 if go(t.args[0]) < go(t.args[1]) else 0
        elif op == T.OP_ULE:
            result = 1 if go(t.args[0]) <= go(t.args[1]) else 0
        elif op == T.OP_SLT:
            w = t.args[0].width
            result = 1 if _to_signed(go(t.args[0]), w) < _to_signed(go(t.args[1]), w) else 0
        elif op == T.OP_SLE:
            w = t.args[0].width
            result = 1 if _to_signed(go(t.args[0]), w) <= _to_signed(go(t.args[1]), w) else 0
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"evaluate: unknown op {op}")
        cache[t] = result
        return result

    return go(term)
