"""P4-16 (subset) parser: P4 source text → the model IR.

Parses the dialect emitted by :mod:`repro.p4.printer` — which is the
Figure-2 style the paper's models are written in: header declarations, a
metadata struct, actions with assignment bodies, match-action tables with
``@entry_restriction`` / ``@refers_to`` / ``@name`` annotations, and
ingress/egress controls whose ``apply`` blocks contain table applications,
labelled conditionals, and assignments.

The subset deliberately omits what the paper's models omit (§3 "P4
Language Features"): header stacks, unions, registers, generic parsers
(the parser pattern is an annotation), and table re-use.

``parse_program(print_program(p))`` is a fixpoint: re-printing the parsed
program reproduces the text byte for byte (property-tested).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.p4 import ast
from repro.p4.ast import (
    Action,
    ActionParamSpec,
    ActionProfile,
    ActionRef,
    BinOp,
    BoolOp,
    Cmp,
    Const,
    FieldRef,
    HashExpr,
    HeaderType,
    If,
    IsValid,
    MatchKind,
    P4Program,
    Param,
    ParserSpec,
    Seq,
    Statement,
    Table,
    TableApply,
    TableKey,
)


class P4ParseError(ValueError):
    """The source text is outside the supported subset or malformed."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<string>"[^"]*")
  | (?P<width_const>\d+w\d+)
  | (?P<int>\d+)
  | (?P<path>[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<at>@[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>&&|\|\||==|!=|<=|>=|[{}()<>;:=,!+\-&|^])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise P4ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = m.end()
        if m.lastgroup in ("ws", "comment"):
            continue
        tokens.append((m.lastgroup, m.group()))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens = _tokenize(text)
        self._pos = 0
        self._headers: List[HeaderType] = []
        self._metadata: List[Tuple[str, int]] = []
        self._actions: Dict[str, Action] = {}
        self._pending_param_refs: Dict[str, Tuple[str, str]] = {}
        self._tables: Dict[str, Table] = {}
        self._role = "unspecified"
        self._parser_pattern = "ethernet_ipv4_ipv6"
        self._program_name = "parsed"
        self._ingress: Optional[Seq] = None
        self._egress: Seq = Seq()

    # --- token plumbing -------------------------------------------------
    def peek(self) -> Tuple[str, str]:
        return self._tokens[self._pos]

    def advance(self) -> Tuple[str, str]:
        token = self._tokens[self._pos]
        if token[0] == "eof":
            raise P4ParseError("unexpected end of input")
        self._pos += 1
        return token

    def expect(self, value: str) -> str:
        kind, text = self.advance()
        if text != value:
            raise P4ParseError(f"expected {value!r}, found {text!r}")
        return text

    def expect_kind(self, kind: str) -> str:
        got_kind, text = self.advance()
        if got_kind != kind:
            raise P4ParseError(f"expected {kind}, found {text!r} ({got_kind})")
        return text

    def _string(self) -> str:
        return self.expect_kind("string")[1:-1]

    def _int(self) -> int:
        return int(self.expect_kind("int"))

    # --- top level ------------------------------------------------------
    def parse(self) -> P4Program:
        while self.peek()[0] != "eof":
            kind, text = self.peek()
            if text == "@role":
                self.advance()
                self.expect("(")
                self._role = self._string()
                self.expect(")")
            elif text == "@parser":
                self.advance()
                self.expect("(")
                self._parser_pattern = self._string()
                self.expect(")")
            elif text == "header":
                self._parse_header()
            elif text == "struct":
                self._parse_metadata()
            elif text == "control":
                self._parse_control()
            elif kind == "at":
                # Stray annotation before a control we understand inline.
                self._parse_control_annotation()
            else:
                raise P4ParseError(f"unexpected top-level token {text!r}")
        if self._ingress is None:
            raise P4ParseError("no ingress control found")
        return P4Program(
            name=self._program_name,
            headers=tuple(self._headers),
            metadata=tuple(self._metadata),
            parser=ParserSpec(self._parser_pattern),
            ingress=self._ingress,
            egress=self._egress,
            role=self._role,
        )

    def _parse_control_annotation(self) -> None:
        raise P4ParseError(f"unsupported top-level annotation {self.peek()[1]!r}")

    # --- declarations ---------------------------------------------------
    def _parse_header(self) -> None:
        self.expect("header")
        name = self.expect_kind("ident")
        if not name.endswith("_t"):
            raise P4ParseError(f"header type {name!r} must end in _t")
        self.expect("{")
        fields: List[Tuple[str, int]] = []
        while self.peek()[1] != "}":
            width = self._parse_bit_type()
            fname = self.expect_kind("ident")
            self.expect(";")
            fields.append((fname, width))
        self.expect("}")
        self._headers.append(HeaderType(name[:-2], tuple(fields)))

    def _parse_bit_type(self) -> int:
        self.expect("bit")
        self.expect("<")
        width = self._int()
        self.expect(">")
        return width

    def _parse_metadata(self) -> None:
        self.expect("struct")
        self.expect_kind("ident")  # metadata_t
        self.expect("{")
        while self.peek()[1] != "}":
            width = self._parse_bit_type()
            name = self.expect_kind("ident")
            self.expect(";")
            self._metadata.append((name, width))
        self.expect("}")

    # --- controls ---------------------------------------------------------
    def _parse_control(self) -> None:
        self.expect("control")
        name = self.expect_kind("ident")
        self.expect("(")
        depth = 1
        while depth:  # skip the parameter list
            text = self.advance()[1]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
        self.expect("{")
        is_egress = name.endswith("_egress")
        if not is_egress and name.endswith("_ingress"):
            self._program_name = name[: -len("_ingress")]
        body: Optional[Seq] = None
        while self.peek()[1] != "}":
            kind, text = self.peek()
            if text == "action":
                self._parse_action()
            elif text == "table":
                self._parse_table(annotations={})
            elif kind == "at" or kind == "string":
                self._parse_annotated_member()
            elif text == "apply":
                body = self._parse_apply()
            else:
                raise P4ParseError(f"unexpected control member {text!r}")
        self.expect("}")
        if is_egress:
            self._egress = body or Seq()
        else:
            self._ingress = body or Seq()

    def _parse_annotated_member(self) -> None:
        annotations: Dict[str, object] = {}
        while self.peek()[0] == "at":
            name = self.advance()[1]
            if name == "@entry_restriction":
                self.expect("(")
                annotations["entry_restriction"] = self._string()
                self.expect(")")
            elif name == "@resource_table":
                annotations["resource"] = True
            elif name == "@logical_table":
                annotations["logical"] = True
            else:
                raise P4ParseError(f"unknown annotation {name!r}")
        kind, text = self.peek()
        if text == "table":
            self._parse_table(annotations)
        elif text == "action":
            self._parse_action()
        else:
            raise P4ParseError(f"annotation not followed by table/action: {text!r}")

    def _parse_action(self) -> None:
        self.expect("action")
        name = self.expect_kind("ident")
        self.expect("(")
        params: List[ActionParamSpec] = []
        while self.peek()[1] != ")":
            if self.peek()[1] == ",":
                self.advance()
                continue
            refs: List[Tuple[str, str]] = []
            while self.peek()[1] == "@refers_to":
                self.advance()
                self.expect("(")
                table = self.expect_kind("ident")
                self.expect(",")
                key = self.expect_kind("ident")
                self.expect(")")
                refs.append((table, key))
            width = self._parse_bit_type()
            pname = self.expect_kind("ident")
            refers_to = None
            if len(refs) == 1:
                refers_to = refs[0]
            elif refs:
                refers_to = tuple(refs)
            params.append(ActionParamSpec(pname, width, refers_to))
        self.expect(")")
        self.expect("{")
        body: List[Statement] = []
        while self.peek()[1] != "}":
            dest = self.expect_kind("path")
            self.expect("=")
            value = self._parse_expr(params)
            self.expect(";")
            body.append(Statement(FieldRef(dest), value))
        self.expect("}")
        self._actions[name] = Action(name, tuple(params), tuple(body))

    # --- tables -----------------------------------------------------------
    def _parse_table(self, annotations: Dict[str, object]) -> None:
        self.expect("table")
        name = self.expect_kind("ident")
        self.expect("{")
        keys: List[TableKey] = []
        # (action name, default_only, table_only)
        action_refs: List[Tuple[str, bool, bool]] = []
        default_action = "NoAction"
        size = 1024
        implementation: Optional[ActionProfile] = None
        while self.peek()[1] != "}":
            member = self.advance()[1]
            if member == "key":
                self.expect("=")
                self.expect("{")
                while self.peek()[1] != "}":
                    keys.append(self._parse_key())
                self.expect("}")
            elif member == "actions":
                self.expect("=")
                self.expect("{")
                while self.peek()[1] != "}":
                    if self.peek()[1] == ",":
                        self.advance()
                        continue
                    default_only = table_only = False
                    while self.peek()[0] == "at":
                        annotation = self.advance()[1]
                        if annotation == "@defaultonly":
                            default_only = True
                        elif annotation == "@tableonly":
                            table_only = True
                        else:
                            raise P4ParseError(
                                f"unknown action annotation {annotation!r}"
                            )
                    action_refs.append(
                        (self.expect_kind("ident"), default_only, table_only)
                    )
                self.expect("}")
                self.expect(";")
            elif member == "const":
                self.expect("default_action")
                self.expect("=")
                default_action = self.expect_kind("ident")
                self.expect(";")
            elif member == "size":
                self.expect("=")
                size = self._int()
                self.expect(";")
            elif member == "implementation":
                self.expect("=")
                self.expect("action_selector")
                self.expect("(")
                profile_name = self.expect_kind("ident")
                self.expect(",")
                max_group = self._int()
                selector_fields: List[FieldRef] = []
                if self.peek()[1] == ",":
                    self.advance()
                    self.expect("{")
                    while self.peek()[1] != "}":
                        if self.peek()[1] == ",":
                            self.advance()
                            continue
                        selector_fields.append(
                            FieldRef(self.expect_kind("path"))
                        )
                    self.expect("}")
                self.expect(")")
                self.expect(";")
                implementation = ActionProfile(
                    profile_name, max_group, tuple(selector_fields)
                )
            else:
                raise P4ParseError(f"unknown table member {member!r}")
        self.expect("}")

        def lookup(action_name: str) -> Action:
            action = self._actions.get(action_name)
            if action is None:
                if action_name == "NoAction":
                    return ast.NO_ACTION
                raise P4ParseError(f"table {name} references unknown action {action_name}")
            return action

        self._tables[name] = Table(
            name=name,
            keys=tuple(keys),
            actions=tuple(
                ActionRef(lookup(a), default_only=d, table_only=t)
                for a, d, t in action_refs
            ),
            default_action=lookup(default_action),
            size=size,
            entry_restriction=annotations.get("entry_restriction"),
            implementation=implementation,
            is_resource_table=bool(annotations.get("resource")),
            is_logical=bool(annotations.get("logical")),
        )

    def _parse_key(self) -> TableKey:
        path = self.expect_kind("path")
        self.expect(":")
        kind = self.expect_kind("ident")
        try:
            match_kind = MatchKind(kind)
        except ValueError:
            raise P4ParseError(f"unknown match kind {kind!r}") from None
        key_name = None
        refers_to = None
        while self.peek()[0] == "at":
            annotation = self.advance()[1]
            if annotation == "@name":
                self.expect("(")
                key_name = self._string()
                self.expect(")")
            elif annotation == "@refers_to":
                self.expect("(")
                table = self.expect_kind("ident")
                self.expect(",")
                key = self.expect_kind("ident")
                self.expect(")")
                refers_to = (table, key)
            else:
                raise P4ParseError(f"unknown key annotation {annotation!r}")
        self.expect(";")
        return TableKey(FieldRef(path), match_kind, name=key_name, refers_to=refers_to)

    # --- apply blocks -----------------------------------------------------
    def _parse_apply(self) -> Seq:
        self.expect("apply")
        self.expect("{")
        return self._parse_block()

    def _parse_block(self) -> Seq:
        nodes = []
        while self.peek()[1] != "}":
            kind, text = self.peek()
            if text == "if":
                nodes.append(self._parse_if())
            elif kind == "path":
                # Either `table.apply();` (single dotted segment ending in
                # .apply) or an assignment.
                path = self.advance()[1]
                if path.endswith(".apply"):
                    self.expect("(")
                    self.expect(")")
                    self.expect(";")
                    table_name = path[: -len(".apply")]
                    table = self._tables.get(table_name)
                    if table is None:
                        raise P4ParseError(f"apply of unknown table {table_name!r}")
                    nodes.append(TableApply(table))
                else:
                    self.expect("=")
                    value = self._parse_expr(())
                    self.expect(";")
                    nodes.append(Statement(FieldRef(path), value))
            else:
                raise P4ParseError(f"unexpected statement {text!r}")
        self.expect("}")
        return Seq(tuple(nodes))

    def _parse_if(self) -> If:
        # The printer emits `if @label("x") (cond) { ... } [else { ... }]`,
        # with the label annotation optional.
        self.expect("if")
        label = ""
        if self.peek()[1] == "@label":
            self.advance()
            self.expect("(")
            label = self._string()
            self.expect(")")
        self.expect("(")
        cond = self._parse_cond()
        self.expect(")")
        self.expect("{")
        then_block = self._parse_block()
        else_block = Seq()
        if self.peek()[1] == "else":
            self.advance()
            self.expect("{")
            else_block = self._parse_block()
        return If(cond=cond, then_block=then_block, else_block=else_block, label=label)

    # --- expressions --------------------------------------------------------
    def _parse_expr(self, params) -> object:
        param_names = {p.name for p in params} if params else set()
        kind, text = self.peek()
        if kind == "width_const":
            self.advance()
            width, value = text.split("w")
            return Const(int(value), int(width))
        if kind == "path":
            self.advance()
            return FieldRef(text)
        if kind == "ident":
            if text == "hash":
                return self._parse_hash()
            self.advance()
            return Param(text)
        if text == "(":
            self.advance()
            left = self._parse_expr(params)
            op = self.advance()[1]
            if op not in ("+", "-", "&", "|", "^"):
                raise P4ParseError(f"unknown binary operator {op!r}")
            right = self._parse_expr(params)
            self.expect(")")
            return BinOp(op, left, right)
        raise P4ParseError(f"unparseable expression at {text!r}")

    def _parse_hash(self) -> HashExpr:
        self.expect("hash")
        self.expect("<")
        width = self._int()
        self.expect(">")
        self.expect("(")
        label = self.expect_kind("ident")
        self.expect(";")
        fields = []
        while self.peek()[1] != ")":
            if self.peek()[1] == ",":
                self.advance()
                continue
            fields.append(FieldRef(self.expect_kind("path")))
        self.expect(")")
        return HashExpr(tuple(fields), width, label)

    def _parse_cond(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        args = [left]
        while self.peek()[1] == "||":
            self.advance()
            args.append(self._parse_and())
        if len(args) == 1:
            return left
        return BoolOp("or", tuple(args))

    def _parse_and(self):
        args = [self._parse_cond_unary()]
        while self.peek()[1] == "&&":
            self.advance()
            args.append(self._parse_cond_unary())
        if len(args) == 1:
            return args[0]
        return BoolOp("and", tuple(args))

    def _parse_cond_unary(self):
        if self.peek()[1] == "!":
            self.advance()
            return BoolOp("not", (self._parse_cond_unary(),))
        if self.peek()[1] == "(":
            # Either a parenthesised boolean or a comparison.
            save = self._pos
            self.advance()
            try:
                inner = self._parse_cond()
                if self.peek()[1] in ("==", "!=", "<", "<=", ">", ">="):
                    raise P4ParseError("comparison, rewind")
                self.expect(")")
                return inner
            except P4ParseError:
                self._pos = save
                return self._parse_comparison()
        if self.peek()[0] == "path" and self._tokens[self._pos][1].endswith(".isValid"):
            path = self.advance()[1]
            self.expect("(")
            self.expect(")")
            return IsValid(path[: -len(".isValid")])
        return self._parse_comparison()

    def _parse_comparison(self):
        self.expect("(")
        left = self._parse_expr(())
        op = self.advance()[1]
        if op not in ("==", "!=", "<", "<=", ">", ">="):
            raise P4ParseError(f"unknown comparison operator {op!r}")
        right = self._parse_expr(())
        self.expect(")")
        return Cmp(op, left, right)


def parse_program(text: str) -> P4Program:
    """Parse P4 source text (the printer's dialect) into a P4Program."""
    return _Parser(text).parse()
