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

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
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
        "drop_value_joins",
        "fault_policy",
        "retry",
        "breaker",
        "validate_io",
        "max_invocations",
        "max_concurrency",
        "call_cache",
        "trace",
    )


def test_a_config_that_cannot_say_nothing():
    """Three strategies, one spelling of typing, one cache field, no
    maintenance switch, no round budget, no embedding-semantics option
    and no de-duplication switch: the deleted spellings occur nowhere
    in the program, and the references that replace the deleted
    switches live in one test module."""
    from repro.lazy.config import Strategy

    assert len(Strategy) == 3
    gone = (
        "maintain_answers",
        "call_cache_ttl_s",
        "max_rounds",
        "LAZY_NFQ_TYPED",
        "MatchOptions",
        "match_options",
        "descend_into_parameters",
        "dedupe_relevance_queries",
    )
    assert [
        (str(path.relative_to(SRC / "repro")), name)
        for path in sorted(SRC.rglob("*.py"))
        for name in gone
        if name in path.read_text(encoding="utf-8")
    ] == []
    references = ast.parse(
        (REPO / "tests" / "references.py").read_text(encoding="utf-8")
    )
    seams = {
        node.name for node in references.body if isinstance(node, ast.FunctionDef)
    } - {"_whole_read", "_walked"}
    assert seams == {
        "object_walk",
        "unanchored",
        "full_relevance",
        "isolated_relevance",
        "just_in_case",
        "undeduplicated",
        "unmaintained",
        "touches_by_walk",
        "unseeded",
    }
    for helper in (
        REPO / "tests" / "conftest.py",
        REPO / "benchmarks" / "bench_harness.py",
    ):
        defined = {
            node.name
            for node in ast.parse(helper.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)
        }
        assert not defined & seams, helper.name


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


def _function(path: pathlib.Path, name: str) -> ast.FunctionDef:
    (found,) = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return found


def _attributes(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_a_read_says_what_it_did():
    """The store reads one pattern and returns its verdict — a hit, a
    scoped re-match or a whole pass, with the scopes it re-matched and
    no row diff — and nobody rebuilds a decision from counters: the
    answer reader has no table of store counters to diff, the engine
    diffs neither the store's nor an answer's, and the server's status
    is the branch that served."""
    import inspect

    from repro.lazy.incremental import Read, RelevanceStore, Verdict

    assert list(inspect.signature(RelevanceStore.retrieve).parameters) == [
        "self",
        "pattern",
        "match",
        "holder",
    ]
    assert [v.value for v in Verdict] == ["hit", "scoped", "whole"]
    assert Read._fields == ("rows", "verdict", "scopes")
    lazy = SRC / "repro" / "lazy"
    assert "_SHARES" not in (lazy / "answers.py").read_text(encoding="utf-8")
    engine = (lazy / "engine.py").read_text(encoding="utf-8")
    assert "counters()" not in engine and "_store_hits" not in engine
    serve = _function(SRC / "repro" / "serve" / "server.py", "_serve")
    assert not _attributes(serve) & {
        "engine_skips",
        "maintained_serves",
        "refresh_count",
    }


def test_a_load_is_one_walk_to_nodes_and_one_pass_to_columns(monkeypatch):
    """Text -> node columns is one walk, columns -> nodes one loop, nodes
    -> arena columns one pass, each run once per text: ``xmlio`` makes
    nodes in exactly one place (the stamp loop); a first (cold) load
    parses once, makes every node once and builds once, reaching neither
    ``Document._register`` nor a second tree walk; a later (warm) load
    of the same text and its first arena read make the root and the
    root's children only, reaching neither the parser, the walk, the
    build, the numbering walk nor any tree walk; reading one row below
    a depth-1 scope makes exactly that scope's subtree, once; counting
    the nodes makes none, and listing the calls makes only the scopes
    that hold them; and the
    arena build reads the id map rather than filling slots through the
    splice path."""
    from repro import kept
    from repro.axml import xmlio
    from repro.axml.arena import DocumentArena
    from repro.axml.document import Document
    from repro.axml.node import Node
    from repro.pattern.match import Matcher
    from repro.pattern.parse import parse_pattern

    axml = SRC / "repro" / "axml"
    xmlio_tree = ast.parse((axml / "xmlio.py").read_text(encoding="utf-8"))
    builders = sorted(
        node.name
        for node in ast.walk(xmlio_tree)
        if isinstance(node, ast.FunctionDef)
        and (
            "__new__" in _attributes(node)
            or any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in ("Node", "element", "value", "call")
                for call in ast.walk(node)
            )
        )
    )
    assert builders == ["_stamp"]
    assert not _attributes(_function(axml / "document.py", "_adopt")) & {
        "children",
        "iter_subtree",
        "_register",
    }
    build = _attributes(_function(axml / "arena.py", "_build"))
    assert "nodes_by_id" in build
    assert not build & {"_add_forest", "iter_subtree", "iter_nodes", "root"}
    assert not _attributes(_function(axml / "arena.py", "_copy")) & {
        "_build",
        "_add_forest",
        "children",
        "iter_subtree",
        "iter_nodes",
        "nodes_by_id",
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a load walked the tree a second time")

    text = (
        '<r xmlns:axml="http://activexml.net/2004/axml">top'
        '<a>1<axml:call service="f"><k>v</k></axml:call>tail</a>'
        "<b><c>2</c><c>3</c></b><e/>end</r>"
    )
    kept.forget()
    parses, walks, builds, made = [], [], [], []
    fromstring, walk, build = xmlio.ET.fromstring, xmlio._walk, DocumentArena._build
    stamp = xmlio._stamp

    def counted(columns, ids, scope=None, stop=0):
        nodes = stamp(columns, ids, scope, stop)
        made.extend(nodes if scope is None else nodes[1:])
        return nodes

    monkeypatch.setattr(
        xmlio.ET, "fromstring", lambda text: parses.append(text) or fromstring(text)
    )
    monkeypatch.setattr(xmlio, "_walk", lambda elem: walks.append(elem) or walk(elem))
    monkeypatch.setattr(
        DocumentArena, "_build", lambda self: builds.append(self) or build(self)
    )
    monkeypatch.setattr(xmlio, "_stamp", counted)
    monkeypatch.setattr(Document, "_register", refuse)
    monkeypatch.setattr(Node, "iter_subtree", refuse)
    cold = xmlio.parse_document(text)
    cold.arena
    assert (len(parses), len(walks), len(builds)) == (1, 1, 1)
    assert len(made) == len({id(n) for n in made}) == cold.live_nodes == 15

    monkeypatch.setattr(xmlio.ET, "fromstring", refuse)
    monkeypatch.setattr(xmlio, "_walk", refuse)
    monkeypatch.setattr(DocumentArena, "_build", refuse)
    made.clear()
    warm = xmlio.parse_document(text)
    warm.arena
    assert made == [warm.root, *warm.root.children]
    assert len(made) == 1 + 5 and warm.live_nodes == 15
    made.clear()
    (row,) = Matcher(parse_pattern('/r/b/c/"3"')).evaluate(warm)
    b = warm.root.children[2]
    below = [n.node_id for n in made]
    assert below == list(range(b.node_id + 1, b.node_id + 5))
    assert row.nodes[0] is b.children[1].children[0]
    Matcher(parse_pattern("/r/b/c/$x")).evaluate(warm)
    assert [warm.node(i) for i in below] == made
    assert len(made) == 4 and type(warm.root.children[1]) is not Node
    # Counting reads the kept extents; the calls make only their scopes.
    made.clear()
    assert warm.root.subtree_size() == 15 and made == []
    (call,) = warm.function_nodes()
    a = warm.root.children[1]
    assert call.label == "f" and call.parent is a and len(made) == 5
    assert warm.function_nodes() == [call] and len(made) == 5
    monkeypatch.undo()
    for document in (cold, warm):
        assert document.live_nodes == 15 and document.function_labels == {"f"}
        assert document.arena.consistency_errors() == []
    assert warm.arena is not cold.arena
    assert not {id(n) for n in warm.iter_nodes()} & {id(n) for n in cold.iter_nodes()}


def test_one_evaluator_and_no_lossy_fault_policy():
    """Every pattern compiles to a column plan and every match runs it:
    ``Matcher`` takes a pattern and a counter and nothing that could
    choose another evaluator, the object walk lives with the tests, a
    fault never deletes a call, and one number has one name: the
    deleted spellings occur nowhere in the program."""
    import dataclasses
    import inspect

    from repro.lazy.config import FaultPolicy
    from repro.lazy.metrics import Metrics
    from repro.pattern.columnmatch import compile_plan
    from repro.pattern.match import Matcher

    assert [p.value for p in FaultPolicy] == ["raise", "freeze"]
    assert list(inspect.signature(Matcher).parameters) == ["pattern", "counter"]
    assert len(dataclasses.fields(Metrics)) == 34
    assert compile_plan.__annotations__["return"] == "ColumnPlan"
    gone = (
        "plan_refusal",
        "INTERIOR_WILDCARD",
        "RESULT_IN_OR",
        "FaultPolicy.SKIP",
        'SKIP = "skip"',
        "calls_skipped",
        "default_non_raising",
        "serial_time_s",
        "parallel_time_s",
        "column_match",
        "arena_for",
        "StandDown",
        "column_fallback",
        "candidates_visited",
        "can_checks",
        "_quick_filter",
        "_children_of",
        "evaluate_at",
        "has_embedding",
        "fault_time_s",
        'WITHIN = "within"',
        "rows_respliced",
        "rows_added",
        "rows_retracted",
    )
    texts = {
        str(path.relative_to(SRC / "repro")): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert [
        (name, word)
        for name, text in texts.items()
        for word in gone
        if word in text
    ] == []
    # The twin of calls_invoked, in any spelling; admission's
    # invocations_total stays.
    twin = re.compile(r"\bself\.invocations\b")
    assert [name for name, text in texts.items() if twin.search(text)] == []
    walk = {"_embed", "_can", "_child_possible", "_exists_below", "_candidates", "_combine"}
    assert walk.isdisjoint(
        node.name
        for node in ast.walk(ast.parse(texts["pattern/match.py"]))
        if isinstance(node, ast.FunctionDef)
    )


def test_a_config_is_obeyed_as_written():
    """Construction only coerces and validates: every field
    ``__post_init__`` assigns is computed from that field's own value
    and no other, so no field is rewritten from another (or set to a
    constant).  The top-down strategy, the second spelling of
    ``FREEZE``, the per-caller switches of what ``NAIVE`` reads, and
    the dead names found beside them occur nowhere in the program."""
    config = ast.parse(
        (SRC / "repro" / "lazy" / "config.py").read_text(encoding="utf-8")
    )
    (post_init,) = [
        node
        for node in ast.walk(config)
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
    ]
    rewrites = []
    for node in ast.walk(post_init):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            read = {
                sub.attr
                for sub in ast.walk(node.value)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
                and not sub.attr.startswith("_")
            }
            if read != {target.attr}:  # a coercion reads its own field
                rewrites.append((node.lineno, target.attr, sorted(read)))
    assert rewrites == []
    gone = (
        "TOP_DOWN",
        "tolerant",
        "_PreparedCall",
        "any_call_relevant",
        "has_match",
        "EVENT_RETRY",
        "_bus_of",
    )
    assert [
        (str(path.relative_to(SRC / "repro")), word)
        for path in sorted(SRC.rglob("*.py"))
        for word in gone
        if word in path.read_text(encoding="utf-8")
    ] == []


def test_an_attempt_becomes_its_log_record_directly():
    """A retry is read under every fault policy, so there is no third
    policy and no single-attempt rewrite; the bus appends each attempt
    as its ``InvocationRecord`` in one step, so there is no measured
    intermediate and no log method copying it.  The deleted names occur
    nowhere in the program."""
    from repro.services.simulation import InvocationLog

    assert not hasattr(InvocationLog, "record")
    gone = (
        "FaultPolicy.RETRY",
        "_RawAttempt",
        "_record_raw",
        "_fault_charge",
        "single_attempt",
    )
    assert [
        (str(path.relative_to(SRC / "repro")), word)
        for path in sorted(SRC.rglob("*.py"))
        for word in gone
        if word in path.read_text(encoding="utf-8")
    ] == []
