#!/usr/bin/env python3
"""Fail on dead intra-repo links and code anchors in README.md and docs/*.md.

Checks every inline markdown link (``[text](target)``) and reference
definition (``[label]: target``) whose target is repo-relative:

* external schemes (http/https/mailto) are skipped;
* bare anchors (``#section``) are checked against the headings of the
  containing file; ``path#anchor`` against the headings of ``path``;
* everything else must exist on disk, resolved relative to the file
  containing the link.

Also checks code anchors. Docs cite code as a symbol next to its file —
```` `ResilienceManager.read` (`src/repro/core/resilience_manager.py`) ```` —
never as ``file.py:NNN``, which goes stale on the next edit. Each such
backticked symbol (a class, ``Class.method`` or module-level name) is
resolved in the file's ``ast``; a missing file or symbol is an error.

Exit code 0 when clean, 1 with one line per dead link otherwise:

    python tools/check_docs_links.py
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Inline links, skipping images; reference-style definitions.
_INLINE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_REFDEF = re.compile(r"^\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
# `Symbol` (`src/pkg/file.py`): a backticked dotted name, then the
# backticked path in parentheses (a line break may separate the two).
_SYMBOL = re.compile(r"`([A-Za-z_][\w.]*)`\s*\(\s*`(src/[\w/.-]+\.py)`\s*\)")


def _strip_code(text: str) -> str:
    """Remove fenced and inline code spans so example snippets and shell
    lines (e.g. ``awk '[...](...)'``) are not parsed as links."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    return re.sub(r"`[^`\n]*`", "", text)


def _anchors(path: Path) -> set[str]:
    """GitHub-style heading anchors: lowercase, strip punctuation,
    spaces to dashes. Inline-code spans keep their text (only the
    backticks vanish from the slug), so only fenced blocks are removed."""
    text = re.sub(
        r"^```.*?^```", "", path.read_text(), flags=re.MULTILINE | re.DOTALL
    ).replace("`", "")
    out = set()
    for heading in _HEADING.findall(text):
        slug = re.sub(r"[^\w\- ]", "", heading.strip().lower())
        out.add(slug.replace(" ", "-"))
    return out


def _defined(path: Path) -> set[str]:
    """Names a doc may cite in ``path``: module-level classes, functions
    and assigned names, plus ``Class.member`` for each class body."""

    def names(body, prefix=""):
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name
                if isinstance(node, ast.ClassDef):
                    yield from names(node.body, prefix + node.name + ".")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield prefix + target.id

    return set(names(ast.parse(path.read_text()).body))


def _doc_files() -> list[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check() -> list[str]:
    errors = []
    defined: dict[str, set[str]] = {}  # source path -> citable names
    for doc in _doc_files():
        rel = doc.relative_to(REPO)
        raw = doc.read_text()
        text = _strip_code(raw)
        targets = _INLINE.findall(text) + _REFDEF.findall(text)
        for target in targets:
            if _SCHEME.match(target) or target.startswith("//"):
                continue
            path_part, _, anchor = target.partition("#")
            if not path_part:  # same-file anchor
                dest = doc
            else:
                dest = (doc.parent / path_part).resolve()
                try:
                    dest.relative_to(REPO)
                except ValueError:
                    errors.append(f"{rel}: link escapes the repo: {target}")
                    continue
                if not dest.exists():
                    errors.append(f"{rel}: dead link: {target}")
                    continue
            if anchor and dest.suffix == ".md":
                if anchor.lower() not in _anchors(dest):
                    errors.append(f"{rel}: dead anchor: {target}")
        for symbol, source in _SYMBOL.findall(raw):
            if not (REPO / source).is_file():
                errors.append(f"{rel}: `{symbol}` cites a missing file: {source}")
                continue
            if source not in defined:
                defined[source] = _defined(REPO / source)
            if symbol not in defined[source]:
                errors.append(f"{rel}: no `{symbol}` in {source}")
    return errors


def main() -> int:
    errors = check()
    for line in errors:
        print(line, file=sys.stderr)
    ndocs = len(_doc_files())
    if errors:
        print(f"{len(errors)} dead link(s) or code anchor(s) across {ndocs} files", file=sys.stderr)
        return 1
    print(f"docs links ok ({ndocs} files checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
