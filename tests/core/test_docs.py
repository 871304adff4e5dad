"""The documentation's code only names options that exist.

Every ``ServiceConfig(``, ``NetOptions(`` and ``MatchingOptions(`` call in a
fenced code block or an inline code span of a README.md or DESIGN.md must
pass only keywords that are fields of that dataclass, so a removed or
renamed option cannot linger in the docs.
"""

import ast
import dataclasses
import pathlib
import re

import pytest

from repro.protocol.matching import MatchingOptions
from repro.service import NetOptions, ServiceConfig

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = sorted(
    path
    for pattern in ("README.md", "DESIGN.md")
    for path in ROOT.rglob(pattern)
    if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
)
CONFIGS = {cls.__name__: cls for cls in (ServiceConfig, NetOptions, MatchingOptions)}
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
INLINE = re.compile(r"`([^`\n]+)`")


def _snippets(text):
    """Fenced code blocks, then the inline code spans outside them."""
    yield from FENCE.findall(text)
    yield from INLINE.findall(FENCE.sub("", text))


def _config_calls(snippet):
    """(dataclass name, keyword) for every keyword of a config call."""
    for node in ast.walk(ast.parse(snippet)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in CONFIGS:
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        yield name, keyword.arg


def test_docs_are_found():
    assert {path.name for path in DOCS} == {"README.md", "DESIGN.md"}


@pytest.mark.parametrize("path", DOCS, ids=lambda path: str(path.relative_to(ROOT)))
def test_documented_config_keywords_are_fields(path):
    unknown, checked = [], 0
    for snippet in _snippets(path.read_text(encoding="utf-8")):
        if not any(f"{name}(" in snippet for name in CONFIGS):
            continue
        try:
            calls = list(_config_calls(snippet))
        except SyntaxError:
            pytest.fail(f"{path.name}: config snippet is not valid Python: {snippet!r}")
        for name, keyword in calls:
            checked += 1
            if keyword not in {field.name for field in dataclasses.fields(CONFIGS[name])}:
                unknown.append(f"{name}({keyword}=...)")
    assert not unknown, f"{path.name} passes unknown options: {unknown}"
    if path.name == "README.md" and path.parent == ROOT:
        assert checked, "the README's config examples were not found"


def test_a_removed_option_is_caught():
    snippet = "config = ServiceConfig(prime_bits=64, incremental=True)"
    assert ("ServiceConfig", "incremental") in set(_config_calls(snippet))
    assert "incremental" not in {field.name for field in dataclasses.fields(ServiceConfig)}
