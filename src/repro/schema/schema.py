"""AXML schemas: element content models and function signatures.

Section 2 / Figure 2 of the paper: a schema ``τ`` associates

* with each function name a pair of regular expressions — the *input*
  and *output* types of the Web service, and
* with each element name a regular expression over element names,
  function names and ``data`` — the content model.

The textual format of Figure 2 is supported::

    functions:
      getHotels         = [in: data, out: hotel*]
      getRating         = [in: data, out: data]
      getNearbyRestos   = [in: data, out: restaurant*]
    elements:
      hotels     = hotel*.getHotels*
      hotel      = name.address.rating.nearby
      rating     = (data | getRating)

Functions that are *not* declared are assumed to have output type ``any``
— exactly the Section 3 assumption under which relevance is purely
positional; Section 5 then uses declared signatures to prune further.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Optional

from ..axml.document import Document
from ..axml.node import Node
from . import automata
from . import regex as rx


@dataclasses.dataclass(frozen=True)
class FunctionSignature:
    """A Web-service signature: name plus input/output types."""

    name: str
    input_type: rx.Regex
    output_type: rx.Regex

    @property
    def output_is_any(self) -> bool:
        return self.output_type.mentions_any()

    def render(self) -> str:
        return self._text

    @functools.cached_property
    def _text(self) -> str:
        """Rendered once: a signature never changes."""
        return (
            f"{self.name} = [in: {self.input_type.render()}, "
            f"out: {self.output_type.render()}]"
        )


class SchemaError(ValueError):
    """Raised on malformed schema text or invalid documents."""


class Schema:
    """A schema ``τ``: content models plus function signatures.  Change
    one through :meth:`declare_element` / :meth:`declare_function`: the
    derived caches, and the text query analyses are keyed by, are
    dropped there."""

    def __init__(
        self,
        elements: Optional[dict[str, rx.Regex]] = None,
        functions: Optional[Iterable[FunctionSignature]] = None,
    ) -> None:
        self.elements: dict[str, rx.Regex] = dict(elements or {})
        self.functions: dict[str, FunctionSignature] = {
            sig.name: sig for sig in functions or ()
        }
        self._nfa_cache: dict[str, automata.NFA] = {}
        self._derived_child_cache: dict[str, tuple[set[str], bool]] = {}
        self._derived_output_cache: dict[str, tuple[set[str], bool]] = {}
        self._rendered: Optional[str] = None

    # -- declaration helpers -------------------------------------------------

    def declare_element(self, name: str, content: str | rx.Regex) -> None:
        self.elements[name] = _as_regex(content)
        self._invalidate_caches()

    def declare_function(
        self, name: str, input_type: str | rx.Regex, output_type: str | rx.Regex
    ) -> None:
        self.functions[name] = FunctionSignature(
            name, _as_regex(input_type), _as_regex(output_type)
        )
        self._invalidate_caches()

    def _invalidate_caches(self) -> None:
        self._nfa_cache.clear()
        self._derived_child_cache.clear()
        self._derived_output_cache.clear()
        self._rendered = None

    # -- lookups ------------------------------------------------------------------

    def content_model(self, element_name: str) -> rx.Regex:
        """The content model of an element (``any`` if undeclared)."""
        return self.elements.get(element_name, rx.ANY_CONTENT)

    def has_element(self, element_name: str) -> bool:
        return element_name in self.elements

    def signature(self, function_name: str) -> FunctionSignature:
        """The signature of a function (``any``/``any`` if undeclared)."""
        sig = self.functions.get(function_name)
        if sig is not None:
            return sig
        return FunctionSignature(function_name, rx.ANY_CONTENT, rx.ANY_CONTENT)

    def is_function_name(self, name: str) -> bool:
        return name in self.functions

    def function_names(self) -> list[str]:
        return sorted(self.functions)

    # -- derived alphabets (Section 5) ----------------------------------------------

    def derived_child_letters(self, element_name: str) -> tuple[set[str], bool]:
        """Labels that may appear as children of an element in *derived*
        instances: the content-model alphabet with function letters
        recursively replaced by their output alphabets.

        Returns ``(letters, top)`` where ``top`` is True when an
        ``any``-typed letter was encountered, meaning any label at all
        can occur.
        """
        cached = self._derived_child_cache.get(element_name)
        if cached is None:
            cached = self._expand_alphabet(self.content_model(element_name), set())
            self._derived_child_cache[element_name] = cached
        return cached

    def derived_output_letters(self, function_name: str) -> tuple[set[str], bool]:
        """Labels that may appear at the top level of derived outputs."""
        cached = self._derived_output_cache.get(function_name)
        if cached is None:
            cached = self._expand_alphabet(
                self.signature(function_name).output_type, set()
            )
            self._derived_output_cache[function_name] = cached
        return cached

    def _expand_alphabet(
        self, regex: rx.Regex, in_progress: set[str]
    ) -> tuple[set[str], bool]:
        letters: set[str] = set()
        top = regex.mentions_any()
        for letter in regex.letters():
            if letter in self.functions:
                if letter in in_progress:
                    continue  # recursive schema: already accounted for
                sub_letters, sub_top = self._expand_alphabet(
                    self.functions[letter].output_type, in_progress | {letter}
                )
                letters |= sub_letters
                top = top or sub_top
            else:
                letters.add(letter)
        return letters, top

    def can_contain_closure(self, element_name: str) -> tuple[set[str], bool]:
        """All labels reachable strictly below an element in derived
        instances (the reachability closure used by descendant edges).
        """
        seen: set[str] = set()
        top = False
        frontier = [element_name]
        while frontier:
            label = frontier.pop()
            letters, is_top = self.derived_child_letters(label)
            top = top or is_top
            for letter in letters:
                if letter not in seen:
                    seen.add(letter)
                    if letter != rx.DATA:
                        frontier.append(letter)
        return seen, top

    # -- validation -----------------------------------------------------------------

    def _nfa_for(self, regex: rx.Regex) -> automata.NFA:
        key = regex.render()
        nfa = self._nfa_cache.get(key)
        if nfa is None:
            nfa = automata.from_regex(regex)
            self._nfa_cache[key] = nfa
        return nfa

    @staticmethod
    def child_word(node: Node) -> list[str]:
        """The letter word formed by a node's children."""
        letters = []
        for child in node.children:
            if child.is_value:
                letters.append(rx.DATA)
            else:
                letters.append(child.label)
        return letters

    def validate_node(self, node: Node, path: str = "") -> list[str]:
        """Validate a subtree; returns a list of violation messages.

        Iterative traversal: arbitrarily deep documents validate without
        hitting the recursion limit.
        """
        errors: list[str] = []
        stack: list[tuple[Node, str]] = [(node, path)]
        while stack:
            current, prefix = stack.pop()
            if current.is_value:
                continue
            where = f"{prefix}/{current.label}"
            if current.is_function:
                model = self.signature(current.label).input_type
                kind = "input of call"
            else:
                model = self.content_model(current.label)
                kind = "content of element"
            word = self.child_word(current)
            if not self._nfa_for(model).accepts(word):
                errors.append(
                    f"{where}: {kind} {current.label!r} does not match "
                    f"{model.render()!r} (children: {word})"
                )
            stack.extend((child, where) for child in reversed(current.children))
        return errors

    def validate_document(self, document: Document) -> list[str]:
        return self.validate_node(document.root)

    def validate_output(self, function_name: str, forest: list[Node]) -> list[str]:
        """Check a call result against the function's output type."""
        sig = self.signature(function_name)
        word = [rx.DATA if t.is_value else t.label for t in forest]
        errors = []
        if not self._nfa_for(sig.output_type).accepts(word):
            errors.append(
                f"output of {function_name!r} does not match "
                f"{sig.output_type.render()!r} (roots: {word})"
            )
        for tree in forest:
            errors.extend(self.validate_node(tree, f"<{function_name} result>"))
        return errors

    # -- consistency ---------------------------------------------------------------------

    def check_consistency(self) -> list[str]:
        """Warnings about letters used but never declared.

        Undeclared names are legal (they default to ``any``), but in a
        hand-written schema they usually indicate a typo; this check is
        what the CLI's validate subcommand surfaces.
        """
        declared = set(self.elements) | set(self.functions) | {rx.DATA, rx.ANY}
        warnings: list[str] = []
        for name, content in sorted(self.elements.items()):
            for letter in sorted(content.letters() - declared):
                warnings.append(
                    f"element {name!r} mentions undeclared {letter!r}"
                )
        for fname in sorted(self.functions):
            signature = self.functions[fname]
            for letter in sorted(signature.output_type.letters() - declared):
                warnings.append(
                    f"output of {fname!r} mentions undeclared {letter!r}"
                )
            for letter in sorted(signature.input_type.letters() - declared):
                warnings.append(
                    f"input of {fname!r} mentions undeclared {letter!r}"
                )
        return warnings

    # -- rendering -----------------------------------------------------------------------

    def render(self) -> str:
        """The schema as text (Figure 2's format), memoised until the
        next ``declare_*``."""
        if self._rendered is None:
            lines = ["functions:"]
            for name in sorted(self.functions):
                lines.append("  " + self.functions[name].render())
            lines.append("elements:")
            for name in sorted(self.elements):
                lines.append(f"  {name} = {self.elements[name].render()}")
            self._rendered = "\n".join(lines)
        return self._rendered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schema({len(self.elements)} elements, "
            f"{len(self.functions)} functions)"
        )


def _as_regex(spec: str | rx.Regex) -> rx.Regex:
    if isinstance(spec, rx.Regex):
        return spec
    return rx.parse_regex(spec)


def parse_schema(text: str) -> Schema:
    """Parse the Figure 2 textual schema format."""
    schema = Schema()
    section = None
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered in ("functions:", "function:"):
            section = "functions"
            continue
        if lowered in ("elements:", "data:", "element:"):
            section = "elements"
            continue
        if "=" not in line:
            raise SchemaError(f"cannot parse schema line: {raw_line!r}")
        name, _, rhs = line.partition("=")
        name = name.strip()
        rhs = rhs.strip()
        if section == "functions" or rhs.startswith("["):
            schema.functions[name] = _parse_signature(name, rhs)
        elif section == "elements":
            schema.elements[name] = rx.parse_regex(rhs)
        else:
            raise SchemaError(
                f"schema line outside of a section: {raw_line!r} "
                "(start with 'functions:' or 'elements:')"
            )
    return schema


def _parse_signature(name: str, rhs: str) -> FunctionSignature:
    body = rhs.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise SchemaError(f"function signature must be [in: ..., out: ...]: {rhs!r}")
    body = body[1:-1]
    in_part, _, out_part = body.partition(",")
    in_key, _, in_rx = in_part.partition(":")
    out_key, _, out_rx = out_part.partition(":")
    if in_key.strip() != "in" or out_key.strip() != "out":
        raise SchemaError(f"function signature must be [in: ..., out: ...]: {rhs!r}")
    return FunctionSignature(
        name, rx.parse_regex(in_rx.strip()), rx.parse_regex(out_rx.strip())
    )
