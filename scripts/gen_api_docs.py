#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collects public classes and functions
with the first paragraph of their docstrings, and writes a browsable
reference. Run after changing public APIs:

    python scripts/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

SKIP_MODULES = {"repro.__main__"}


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return paragraph


def public_members(module):
    for name, member in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        yield name, member


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        yield importlib.import_module(info.name)


def render() -> str:
    """The text of ``docs/API.md``."""
    lines = [
        "# API reference",
        "",
        "Generated by `python scripts/gen_api_docs.py` — edit docstrings,",
        "not this file.",
        "",
    ]
    for module in iter_modules():
        members = list(public_members(module))
        summary = first_paragraph(module)
        if not members and not summary:
            continue
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        if summary:
            lines.append(summary)
            lines.append("")
        for name, member in members:
            kind = "class" if inspect.isclass(member) else "def"
            try:
                signature = str(inspect.signature(member))
            except (TypeError, ValueError):
                signature = "(...)"
            if len(signature) > 70:
                signature = "(...)"
            lines.append(f"- **`{kind} {name}{signature}`** — "
                         f"{first_paragraph(member) or '(undocumented)'}")
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> int:
    text = render()
    out = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    out.write_text(text)
    lines = text.splitlines()
    undocumented = sum(1 for line in lines if "(undocumented)" in line)
    print(f"wrote {out} ({len(lines)} lines, "
          f"{undocumented} undocumented members)")
    return 1 if undocumented else 0


if __name__ == "__main__":
    sys.exit(main())
