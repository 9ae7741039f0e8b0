"""Source hygiene: what CI's ``pyflakes src`` job enforces, as a test.

No linter is installable in every environment this suite runs in, so
the two findings that job has actually produced here are re-derived
from the AST: an import nothing in the module uses, and a plain local
that is assigned and never read.  Both checks over-approximate "used"
(any load of the name anywhere in the enclosing module / function
counts, as does any mention in a non-docstring string — ``__all__``
entries, quoted annotations), so a finding is always real.
"""

from __future__ import annotations

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are bare expression statements."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }


def _mentions(tree: ast.AST) -> set[str]:
    """Every name loaded or deleted under ``tree``, plus the words of
    its non-docstring strings."""
    skip = _docstrings(tree)
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)  # reads before it writes
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            names.update(WORD.findall(node.value))
    return names


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    used = _mentions(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound != "*" and bound not in used:
                    found.append((node.lineno, f"unused import {bound!r}"))
    return found


def _own_statements(function: ast.AST):
    """Nodes of a function's own scope: nested defs and classes bind
    their own names and are not entered."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(tree: ast.Module) -> list[tuple[int, str]]:
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _mentions(function)
        if "locals" in read:
            continue
        declared: set[str] = set()
        assigned: dict[str, int] = {}
        for node in _own_statements(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, node.lineno)
        for name, lineno in assigned.items():
            if name not in read and name not in declared:
                found.append(
                    (lineno, f"local {name!r} is assigned and never read")
                )
    return found


def test_src_has_no_unused_import_and_no_unread_local():
    findings = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, message in unused_imports(tree) + unread_locals(tree):
            where = f"{path.relative_to(SRC.parent)}:{lineno}"
            findings.append(f"{where}: {message}")
    assert findings == []


def test_the_checks_see_what_they_claim_to():
    tree = ast.parse(
        "import os, sys\n"
        "from typing import Optional, List\n"
        "__all__ = ['List']\n"
        "def f(a: 'Optional[int]'):\n"
        "    config = a\n"
        "    kept = total = 0\n"
        "    total += 1\n"
        "    def inner():\n"
        "        return kept\n"
        "    left, right = a\n"
        "    return sys.argv\n"
    )
    assert unused_imports(tree) == [(1, "unused import 'os'")]
    assert unread_locals(tree) == [
        (5, "local 'config' is assigned and never read")
    ]


def test_one_retry_loop_and_no_threads():
    """Two facts the round rests on, kept from drifting back: services
    are in-process, so nothing under ``src/`` overlaps real work on
    threads (a round's overlap is simulated on the bus clock); and the
    bus has exactly one retry loop."""
    threaded = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            if any(
                module.split(".")[0] in ("threading", "concurrent")
                for module in modules
            ):
                threaded.append(f"{path.relative_to(SRC.parent)}:{node.lineno}")
    assert threaded == []
    loops = sum(
        path.read_text(encoding="utf-8").count(
            "range(1, retry.max_attempts + 1)"
        )
        for path in (SRC / "repro" / "services").glob("*.py")
    )
    assert loops == 1


def test_one_way_to_find_relevant_calls():
    """The engine reads relevance through the document's store only:
    the F-guide is the Section 6.2 reference, looked up nowhere else,
    and neither a guide nor a round-width knob is configurable."""
    from repro.lazy.config import EngineConfig

    engine = SRC / "repro" / "lazy" / "engine.py"
    assert not {
        module
        for module in _imported_modules(engine)
        if module.startswith("repro.lazy.fguide")
    }
    assert [
        str(path.relative_to(SRC / "repro"))
        for path in sorted(SRC.rglob("*.py"))
        if ".candidates(" in path.read_text(encoding="utf-8")
    ] == ["lazy/fguide.py"]
    assert EngineConfig.field_names() == (
        "strategy",
        "typing",
        "use_layers",
        "parallel",
        "push_mode",
        "dedupe_relevance_queries",
        "drop_value_joins",
        "fault_policy",
        "retry",
        "breaker",
        "validate_io",
        "max_invocations",
        "max_rounds",
        "max_concurrency",
        "call_cache",
        "maintain_answers",
        "call_cache_ttl_s",
        "match_options",
        "trace",
    )


def test_one_analysis_path_typed_or_not():
    """Typed analyses are built and shared like untyped ones: no
    private per-evaluation construction path, and nothing in
    ``acquire`` asks which typing mode is on."""
    assert [
        str(path.relative_to(SRC / "repro"))
        for path in sorted(SRC.rglob("*.py"))
        if "_own_analysis" in path.read_text(encoding="utf-8")
    ] == []
    engine = ast.parse((SRC / "repro" / "lazy" / "engine.py").read_text())
    (acquire,) = [
        node
        for node in ast.walk(engine)
        if isinstance(node, ast.FunctionDef) and node.name == "acquire"
    ]
    assert not [
        node
        for node in ast.walk(acquire)
        if isinstance(node, (ast.If, ast.IfExp))
        or (isinstance(node, ast.Name) and node.id == "TypingMode")
        or (isinstance(node, ast.Attribute) and node.attr == "typing")
    ]


def _imported_modules(path: pathlib.Path) -> set[str]:
    """Absolute dotted names of what ``path`` imports (relative imports
    resolved against its package)."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_the_server_has_no_relevance_evaluator_of_its_own():
    """Three facts the quiet probe rests on, kept from drifting back:
    the group pass is gone by name; the document's store is read by the
    engine (runs and probes) and by answer readers, nobody else; and
    the serving layer reaches neither the matcher nor the store."""
    sources = {
        str(path.relative_to(SRC / "repro")): path
        for path in sorted(SRC.rglob("*.py"))
    }
    texts = {name: path.read_text(encoding="utf-8") for name, path in sources.items()}
    assert [
        name
        for name, text in texts.items()
        if "multimatch" in text or "PatternGroup" in text
    ] == []
    assert sorted(
        name for name, text in texts.items() if ".retrieve(" in text
    ) == ["lazy/answers.py", "lazy/engine.py"]
    assert "repro.lazy.engine" in _imported_modules(sources["serve/server.py"])
    for name, path in sources.items():
        if name.startswith("serve/"):
            assert not _imported_modules(path) & {
                "repro.pattern.match",
                "repro.lazy.incremental",
            }, name
