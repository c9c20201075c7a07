"""Cross-program role-contract analysis.

§3: one SAI-shaped P4 model is *instantiated per switch role* (ToR, WAN,
Cerberus) from a common component library, while the controller code
driving all of them is shared.  The controller's view of a table is its
p4info entry — match-field names/kinds/widths and their positional ids,
action signatures, ``@refers_to`` edges, ``@entry_restriction`` — so any
same-named object whose p4info quietly diverges between roles is an API
drift bug: controller code tested against one role corrupts another.
P4R-Type (PAPERS.md) makes the same point from the type-system side.

This pass suite aligns two or more role programs through their p4info
catalogues (the wire contract, not the implementation):

* **key-align** — same-named tables must agree on match-field names,
  kinds, and widths.  Roles legitimately instantiate different ACL key
  *combinations* (§3 "Role Specific Instantiations"), so tables with
  different key counts are compared only on the keys they share, by name;
  tables with the same key count are also held to positional agreement
  (p4info match-field ids are positions, so a reorder silently remaps
  every controller write).
* **action-align** — same-named actions must agree on parameter names,
  widths, and positions.  Action *sets* per table are not compared: a
  role adding an action (Cerberus's tunnel route) widens its API without
  breaking shared controller code.
* **ref-align** — ``@refers_to`` edges on shared keys/params must agree,
  but only when every referenced table exists in both roles (the toy
  program legitimately drops the edge along with the table).
* **restriction-compat** — for shared tables with *identical* key
  shapes, the entry restrictions must accept the same entries.  Checked
  by SMT in both directions: a SAT ``wellformed ∧ r_A ∧ ¬r_B`` means
  some concrete entry is accepted by role A and rejected by role B — and
  that minimized entry **is** the witness attached to the finding.

Every contract finding is an ERROR: the model pair cannot both be the
specification the shared controller assumes.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from repro.p4.ast import P4Program
from repro.p4.constraints.lang import (
    ConstraintSyntaxError,
    normalize_constraint_text,
    parse_constraint,
)
from repro.p4.constraints.symbolic import SymbolicKeySet, encode_constraint
from repro.p4.p4info import ActionInfo, P4Info, TableInfo, build_p4info
from repro.smt import Result, Solver
from repro.smt import terms as T
from repro.analysis.diagnostics import (
    AnalysisReport,
    CONTRACT_ACTION_DRIFT,
    CONTRACT_ID_DRIFT,
    CONTRACT_KEY_DRIFT,
    CONTRACT_REF_DRIFT,
    CONTRACT_RESTRICTION_DRIFT,
    Diagnostic,
    Severity,
)
from repro.analysis.witness import (
    KIND_ENTRY,
    Witness,
    input_variables,
    packet_witness,
)

# Names the CLI uses to select contract passes (--only/--skip).
CONTRACT_PASS_NAMES = (
    "key-align",
    "action-align",
    "ref-align",
    "restriction-compat",
)


def _loc(role_a: str, role_b: str, detail: str) -> str:
    return f"{role_a}<->{role_b}: {detail}"


def _width_drift_witness(
    var_name: str, width_a: int, width_b: int, role_a: str, role_b: str
) -> Witness:
    """The smallest concrete value representable under the wider role but
    out of range for the narrower one — a replayable demonstration that
    the two signatures accept different value sets."""
    narrow, wide = sorted((width_a, width_b))
    value = 1 << narrow
    term = T.bv_var(var_name, wide).uge(T.bv_const(value, wide))
    wide_role = role_a if width_a > width_b else role_b
    narrow_role = role_b if width_a > width_b else role_a
    return Witness(
        kind=KIND_ENTRY,
        values=((var_name, value),),
        note=f"valid for {wide_role} ({wide} bits) but unrepresentable "
        f"for {narrow_role} ({narrow} bits)",
        term=term,
    )


# ----------------------------------------------------------------------
# key-align / action-align: positional and per-name signature agreement
# ----------------------------------------------------------------------


def _align_table_keys(
    role_a: str, role_b: str, ta: TableInfo, tb: TableInfo
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    by_name_a = {m.name: m for m in ta.match_fields}
    by_name_b = {m.name: m for m in tb.match_fields}
    names_a = [m.name for m in ta.match_fields]
    names_b = [m.name for m in tb.match_fields]
    if len(names_a) == len(names_b) and names_a != names_b:
        if sorted(names_a) == sorted(names_b):
            moved = sorted(
                n for n in by_name_a if by_name_a[n].id != by_name_b[n].id
            )
            out.append(
                Diagnostic(
                    code=CONTRACT_ID_DRIFT,
                    severity=Severity.ERROR,
                    location=_loc(role_a, role_b, f"table {ta.name}"),
                    message=f"same match fields at different p4info ids: "
                    f"{', '.join(moved)}; positional controller writes "
                    "target different fields per role",
                    fix_hint="declare the keys in the same order in both "
                    "instantiations",
                    table_name=ta.name,
                )
            )
        else:
            out.extend(
                Diagnostic(
                    code=CONTRACT_KEY_DRIFT,
                    severity=Severity.ERROR,
                    location=_loc(role_a, role_b, f"table {ta.name}, key {na}"),
                    message=f"match field {position} is named "
                    f"{na!r} in {role_a} but {nb!r} in {role_b}",
                    fix_hint="rename one side (or both) so the "
                    "shared controller code sees one field name",
                    table_name=ta.name,
                )
                for position, (na, nb) in enumerate(
                    zip(names_a, names_b, strict=True), start=1
                )
                if na != nb and (na not in by_name_b or nb not in by_name_a)
            )
    for name in sorted(set(by_name_a) & set(by_name_b)):
        ma, mb = by_name_a[name], by_name_b[name]
        if ma.match_type is not mb.match_type:
            out.append(
                Diagnostic(
                    code=CONTRACT_KEY_DRIFT,
                    severity=Severity.ERROR,
                    location=_loc(role_a, role_b, f"table {ta.name}, key {name}"),
                    message=f"match kind is {ma.match_type.value} in "
                    f"{role_a} but {mb.match_type.value} in {role_b}",
                    fix_hint="a shared flow-programming path cannot encode "
                    "both kinds; align the match kinds",
                    table_name=ta.name,
                )
            )
        if ma.bitwidth != mb.bitwidth:
            out.append(
                Diagnostic(
                    code=CONTRACT_KEY_DRIFT,
                    severity=Severity.ERROR,
                    location=_loc(role_a, role_b, f"table {ta.name}, key {name}"),
                    message=f"match field width is {ma.bitwidth} bits in "
                    f"{role_a} but {mb.bitwidth} bits in {role_b}",
                    fix_hint="align the widths; out-of-range values are "
                    "rejected by one role and installed by the other",
                    table_name=ta.name,
                    witness=_width_drift_witness(
                        f"{ta.name}.{name}::value",
                        ma.bitwidth,
                        mb.bitwidth,
                        role_a,
                        role_b,
                    ),
                )
            )
    return out


def _align_actions(
    role_a: str, role_b: str, aa: ActionInfo, ab: ActionInfo
) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    location = _loc(role_a, role_b, f"action {aa.name}")
    by_name_a = {p.name: p for p in aa.params}
    by_name_b = {p.name: p for p in ab.params}
    names_a = [p.name for p in aa.params]
    names_b = [p.name for p in ab.params]
    if len(names_a) != len(names_b):
        out.append(
            Diagnostic(
                code=CONTRACT_ACTION_DRIFT,
                severity=Severity.ERROR,
                location=location,
                message=f"takes {len(names_a)} parameter(s) in {role_a} "
                f"but {len(names_b)} in {role_b}",
                fix_hint="shared controller code builds one parameter "
                "list; align the signatures",
            )
        )
    elif names_a != names_b:
        if sorted(names_a) == sorted(names_b):
            moved = sorted(
                n for n in by_name_a if by_name_a[n].id != by_name_b[n].id
            )
            out.append(
                Diagnostic(
                    code=CONTRACT_ID_DRIFT,
                    severity=Severity.ERROR,
                    location=location,
                    message=f"same parameters at different p4info ids: "
                    f"{', '.join(moved)}; positional writes swap arguments "
                    "between roles",
                    fix_hint="declare the parameters in the same order in "
                    "both instantiations",
                )
            )
        else:
            out.extend(
                Diagnostic(
                    code=CONTRACT_ACTION_DRIFT,
                    severity=Severity.ERROR,
                    location=location,
                    message=f"parameter {position} is named {na!r} "
                    f"in {role_a} but {nb!r} in {role_b}",
                    fix_hint="rename one side so the shared "
                    "controller code sees one parameter name",
                )
                for position, (na, nb) in enumerate(
                    zip(names_a, names_b, strict=True), start=1
                )
                if na != nb and (na not in by_name_b or nb not in by_name_a)
            )
    for name in sorted(set(by_name_a) & set(by_name_b)):
        pa, pb = by_name_a[name], by_name_b[name]
        if pa.bitwidth != pb.bitwidth:
            out.append(
                Diagnostic(
                    code=CONTRACT_ACTION_DRIFT,
                    severity=Severity.ERROR,
                    location=_loc(
                        role_a, role_b, f"action {aa.name}, param {name}"
                    ),
                    message=f"parameter width is {pa.bitwidth} bits in "
                    f"{role_a} but {pb.bitwidth} bits in {role_b}",
                    fix_hint="align the widths; one role rejects values "
                    "the other installs",
                    witness=_width_drift_witness(
                        f"{aa.name}.{name}::value",
                        pa.bitwidth,
                        pb.bitwidth,
                        role_a,
                        role_b,
                    ),
                )
            )
    return out


# ----------------------------------------------------------------------
# ref-align: @refers_to edge agreement
# ----------------------------------------------------------------------


def _align_refs(
    role_a: str,
    role_b: str,
    info_a: P4Info,
    info_b: P4Info,
    owner_kind: str,
    owner: str,
    member: str,
    refs_a: Tuple[Tuple[str, str], ...],
    refs_b: Tuple[Tuple[str, str], ...],
) -> Optional[Diagnostic]:
    if set(refs_a) == set(refs_b):
        return None
    # A role that drops a table legitimately drops the edges into it (the
    # toy program has no nexthop_tbl, so its set_nexthop_id carries no
    # @refers_to) — only diverging edges between *shared* targets drift.
    mentioned = {table for table, _key in refs_a} | {t for t, _k in refs_b}
    for target in mentioned:
        if info_a.table_by_name(target) is None or info_b.table_by_name(target) is None:
            return None

    def show(refs: Tuple[Tuple[str, str], ...]) -> str:
        if not refs:
            return "no reference"
        return ", ".join(f"@refers_to({t}, {k})" for t, k in sorted(refs))

    return Diagnostic(
        code=CONTRACT_REF_DRIFT,
        severity=Severity.ERROR,
        location=_loc(role_a, role_b, f"{owner_kind} {owner}, {member}"),
        message=f"{show(refs_a)} in {role_a} but {show(refs_b)} in "
        f"{role_b}; one role's controller skips a dependency check the "
        "other relies on",
        fix_hint="annotate both instantiations with the same "
        "@refers_to edges",
        table_name=owner if owner_kind == "table" else "",
    )


# ----------------------------------------------------------------------
# restriction-compat: SMT equivalence of entry restrictions
# ----------------------------------------------------------------------


def _encode_restriction(
    table: TableInfo, text: Optional[str], keys: SymbolicKeySet
) -> Optional[T.Term]:
    if not text:
        return T.TRUE
    try:
        return encode_constraint(parse_constraint(text), keys)
    except (ConstraintSyntaxError, KeyError):
        return None  # malformed: the structural passes own that report


def _check_restriction_compat(
    role_a: str,
    role_b: str,
    ta: TableInfo,
    tb: TableInfo,
    witnesses: bool,
) -> List[Diagnostic]:
    """Both directions of ``wellformed ∧ r_one ∧ ¬r_other``; each SAT
    direction yields a finding whose witness is the minimized accepted/
    rejected entry itself."""
    shape_a = {(m.name, m.match_type, m.bitwidth) for m in ta.match_fields}
    shape_b = {(m.name, m.match_type, m.bitwidth) for m in tb.match_fields}
    if shape_a != shape_b:
        return []  # different key shapes: no common entry space to compare
    if normalize_constraint_text(ta.entry_restriction or "") == (
        normalize_constraint_text(tb.entry_restriction or "")
    ):
        return []
    keys = SymbolicKeySet(ta)
    ra = _encode_restriction(ta, ta.entry_restriction, keys)
    rb = _encode_restriction(tb, tb.entry_restriction, keys)
    if ra is None or rb is None:
        return []
    solver = Solver()
    out: List[Diagnostic] = []
    directions = (
        (role_a, role_b, ra, rb),
        (role_b, role_a, rb, ra),
    )
    for accepts, rejects, r_acc, r_rej in directions:
        formula = T.and_(keys.wellformedness(), r_acc, T.not_(r_rej))
        if solver.check(formula) is not Result.SAT:
            continue
        witness = None
        if witnesses:
            witness = packet_witness(
                solver,
                [formula],
                input_variables(formula),
                note=f"this entry is accepted by {accepts} and rejected "
                f"by {rejects}",
                kind=KIND_ENTRY,
            )
        out.append(
            Diagnostic(
                code=CONTRACT_RESTRICTION_DRIFT,
                severity=Severity.ERROR,
                location=_loc(
                    accepts, rejects, f"table {ta.name}, @entry_restriction"
                ),
                message=f"some well-formed entry satisfies {accepts}'s "
                f"restriction but violates {rejects}'s; shared controller "
                "code cannot install one flow on both roles",
                fix_hint="align the restrictions (or rename the table if "
                "the semantics genuinely differ per role)",
                table_name=ta.name,
                witness=witness,
            )
        )
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def analyze_contract(
    programs: Sequence[P4Program],
    witnesses: bool = True,
    selected: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Pairwise contract comparison of two or more role programs.

    Returns an :class:`AnalysisReport` (same container as the
    single-program analyzer, so rendering, gating, and the incident
    pipeline work unchanged) named after the compared roles, with
    diagnostics sorted deterministically.
    """
    if len(programs) < 2:
        raise ValueError("contract analysis needs at least two programs")
    passes = set(CONTRACT_PASS_NAMES if selected is None else selected)
    start = time.perf_counter()
    roles = [p.name for p in programs]
    infos = [build_p4info(p) for p in programs]
    report = AnalysisReport(program_name=f"contract({', '.join(roles)})")
    tables_aligned = actions_aligned = compat_checks = 0

    for (role_a, info_a), (role_b, info_b) in combinations(
        zip(roles, infos, strict=True), 2
    ):
        shared_tables = sorted(
            {t.name for t in info_a.tables.values()}
            & {t.name for t in info_b.tables.values()}
        )
        for name in shared_tables:
            ta = info_a.table_by_name(name)
            tb = info_b.table_by_name(name)
            tables_aligned += 1
            if "key-align" in passes:
                report.extend(_align_table_keys(role_a, role_b, ta, tb))
            if "ref-align" in passes:
                shared_keys = {m.name for m in ta.match_fields} & {
                    m.name for m in tb.match_fields
                }
                for key in sorted(shared_keys):
                    ref_a = info_a.references.get((name, key))
                    ref_b = info_b.references.get((name, key))
                    drift = _align_refs(
                        role_a,
                        role_b,
                        info_a,
                        info_b,
                        "table",
                        name,
                        f"key {key}",
                        (ref_a,) if ref_a else (),
                        (ref_b,) if ref_b else (),
                    )
                    if drift:
                        report.diagnostics.append(drift)
            if "restriction-compat" in passes:
                compat_checks += 1
                report.extend(
                    _check_restriction_compat(role_a, role_b, ta, tb, witnesses)
                )
        if passes & {"action-align", "ref-align"}:
            shared_actions = sorted(
                {a.name for a in info_a.actions.values()}
                & {a.name for a in info_b.actions.values()}
            )
            for name in shared_actions:
                aa = info_a.action_by_name(name)
                ab = info_b.action_by_name(name)
                actions_aligned += 1
                if "action-align" in passes:
                    report.extend(_align_actions(role_a, role_b, aa, ab))
                if "ref-align" in passes:
                    shared_params = {p.name for p in aa.params} & {
                        p.name for p in ab.params
                    }
                    by_name_a = {p.name: p for p in aa.params}
                    by_name_b = {p.name: p for p in ab.params}
                    for param in sorted(shared_params):
                        drift = _align_refs(
                            role_a,
                            role_b,
                            info_a,
                            info_b,
                            "action",
                            name,
                            f"param {param}",
                            by_name_a[param].refers_to,
                            by_name_b[param].refers_to,
                        )
                        if drift:
                            report.diagnostics.append(drift)

    report.summary = {
        "pairs": len(roles) * (len(roles) - 1) // 2,
        "tables_aligned": tables_aligned,
        "actions_aligned": actions_aligned,
        "restriction_checks": compat_checks,
    }
    report.semantic_ran = True
    report.semantic_seconds = time.perf_counter() - start
    report.sort()
    return report
