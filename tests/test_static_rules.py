"""The lint rules that matter, enforced with the stdlib (``ruff`` is not
installed where tier-1 runs, so ``pyproject.toml``'s selection went
unchecked): no unused import, no bare ``except``, and no ``try/except/pass``
outside the files ``pyproject.toml`` exempts — a swallowed error in the
oracle or harness suppresses incidents with no signal.  One rule of the
project's own: no ``Solver`` or ``SolverPool`` is built at import time, so
no solver outlives the run that built it.
"""

import ast
import re
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO_ROOT / "src").rglob("*.py"))


def _swallow_exempt():
    """Files pyproject.toml lets keep ``try/except/pass`` (ruff S110)."""
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        per_file = tomllib.load(fh)["tool"]["ruff"]["lint"]["per-file-ignores"]
    return {path for path, rules in per_file.items() if "S110" in rules}


def _unused_imports(tree, source):
    """Module-level imports never read (ruff F401).  A name counts as read
    if it occurs as an identifier, in ``__all__``, or inside a string
    (quoted annotations); ``__init__`` re-exports are not imports to use."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and "noqa" not in source[node.lineno - 1]:
                    bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    quoted = " ".join(
        n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    )
    read |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", quoted))
    return [(line, f"unused import {name}") for name, line in bound.items() if name not in read]


def _import_time_solvers(tree):
    """``Solver`` / ``SolverPool`` constructions that run at import time: at
    module level, in a class body, or in a default argument.  A solver
    built there is process-wide state that every caller shares and no
    caller resets."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # The body runs per call; the defaults and decorators do not.
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            stack.extend(getattr(node, "decorator_list", ()))
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("Solver", "SolverPool"):
                found.append((node.lineno, f"import-time {name}()"))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _findings(path, swallow_allowed):
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    found = [] if path.name == "__init__.py" else _unused_imports(tree, text.splitlines())
    found += _import_time_solvers(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            found.append((node.lineno, "bare except"))
        if not swallow_allowed and len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            found.append((node.lineno, "try/except/pass swallows the error"))
    return found


def test_every_source_file_is_checked_and_the_exemptions_exist():
    assert len(SOURCES) >= 80
    exempt = _swallow_exempt()
    assert len(exempt) == 4
    assert all((REPO_ROOT / path).is_file() for path in exempt)


def test_src_obeys_the_static_rules():
    exempt = _swallow_exempt()
    problems = []
    for path in SOURCES:
        relative = path.relative_to(REPO_ROOT).as_posix()
        for line, what in _findings(path, relative in exempt):
            problems.append(f"{relative}:{line}: {what}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize(
    "snippet, expected",
    [
        ("import os\n", "unused import os"),
        ("from typing import List, Dict\nx: List[int] = []\n", "unused import Dict"),
        ("try:\n    pass\nexcept:\n    raise\n", "bare except"),
        ("try:\n    pass\nexcept KeyError:\n    pass\n", "try/except/pass swallows the error"),
        ("from repro.smt import SolverPool\n_POOL = SolverPool()\n", "import-time SolverPool()"),
        ("import repro.smt as smt\nclass C:\n    solver = smt.Solver()\n", "import-time Solver()"),
        (
            "from repro.smt import Solver\ndef f(s=Solver()):\n    return s\n",
            "import-time Solver()",
        ),
    ],
)
def test_the_checker_sees_what_it_claims_to(tmp_path, snippet, expected):
    path = tmp_path / "sample.py"
    path.write_text(snippet)
    assert [what for _line, what in _findings(path, swallow_allowed=False)] == [expected]
    clean = tmp_path / "clean.py"
    clean.write_text(
        'import os\nfrom typing import List\nx: "List[int]" = [os.sep]\n'
        "from repro.smt import Solver\ndef fresh():\n    return Solver()\n"
    )
    assert _findings(clean, swallow_allowed=False) == []
