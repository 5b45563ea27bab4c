"""``docs/API.md`` is what ``scripts/gen_api_docs.py`` renders.

Members are compared by module and name only: signatures render
differently across interpreters (an enum's constructor, for one), so
whole lines would tie the committed file to one Python version.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_MODULE = re.compile(r"^## `([\w.]+)`$")
_MEMBER = re.compile(r"^- \*\*`(?:class|def) (\w+)")


def _render() -> str:
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", ROOT / "scripts" / "gen_api_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.render()


def _index(text: str):
    """``[(module, [member, ...]), ...]`` in document order."""
    index = []
    for line in text.splitlines():
        heading = _MODULE.match(line)
        if heading:
            index.append((heading.group(1), []))
            continue
        member = _MEMBER.match(line)
        if member:
            index[-1][1].append(member.group(1))
    return index


def test_api_reference_is_complete_and_current():
    text = _render()
    undocumented = [line for line in text.splitlines()
                    if "(undocumented)" in line]
    assert not undocumented, undocumented
    committed = (ROOT / "docs" / "API.md").read_text()
    assert _index(committed) == _index(text), (
        "docs/API.md is stale: run python scripts/gen_api_docs.py")
