#!/usr/bin/env python
"""Lint: relative links and intra-doc anchors in the docs must resolve.

Scans ``README.md`` and ``docs/*.md`` for Markdown links and image
references, and checks that

* every *relative* target (anything that is not an
  ``http(s)``/``mailto`` URL or a pure ``#anchor``) exists on disk,
  resolved against the linking file's directory; and
* every fragment — a pure ``#anchor`` or the ``#anchor`` tail of a
  relative link to another Markdown file — names a real heading in the
  target document, using GitHub's heading-to-anchor slug rules
  (lowercase, punctuation stripped, spaces to hyphens, ``-1``/``-2``
  suffixes for duplicates).

This is what keeps the docs index honest: a renamed doc, example,
tool, or section heading breaks CI instead of silently 404ing for
readers.

Exit status 0 when every link resolves; 1 with a listing otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Inline links/images: [text](target) / ![alt](target).  Reference-style
# definitions: [label]: target
_INLINE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_REFDEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)

_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def _strip_fences(text: str) -> str:
    """Remove fenced code blocks (headings/links there aren't real)."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def _strip_code(text: str) -> str:
    """Remove fenced and inline code spans (links there aren't links)."""
    return re.sub(r"`[^`]*`", "", _strip_fences(text))


def doc_files() -> list[Path]:
    """The files whose links this lint guards."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.is_file()]


_HEADING = re.compile(r"^(#{1,6})\s+(.+?)\s*#*\s*$", re.MULTILINE)
# GitHub keeps word characters, hyphens, and spaces; everything else
# (backticks, slashes, dots, parens, ...) is dropped before the
# space-to-hyphen pass.
_SLUG_DROP = re.compile(r"[^\w\- ]")


def heading_anchors(path: Path) -> set[str]:
    """GitHub-style anchor slugs for every heading in ``path``."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    # Only fenced blocks are stripped here: a heading that is entirely
    # inline code (``## `repro.serve```) still gets an anchor on GitHub.
    for match in _HEADING.finditer(_strip_fences(path.read_text())):
        title = re.sub(r"`([^`]*)`", r"\1", match.group(2))
        slug = _SLUG_DROP.sub("", title.lower()).replace(" ", "-")
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def check_file(path: Path, anchor_cache: "dict[Path, set[str]]") -> list[str]:
    """Broken-link and broken-anchor messages for one Markdown file."""
    rel = path.relative_to(REPO_ROOT)
    text = _strip_code(path.read_text())
    targets = _INLINE.findall(text) + _REFDEF.findall(text)
    broken = []

    def anchors_of(target_path: Path) -> set[str]:
        if target_path not in anchor_cache:
            anchor_cache[target_path] = heading_anchors(target_path)
        return anchor_cache[target_path]

    for target in targets:
        if target.startswith(_EXTERNAL):
            continue
        if target.startswith("#"):
            if target[1:] not in anchors_of(path):
                broken.append(f"{rel}: broken anchor -> {target}")
            continue
        file_part, _, fragment = target.partition("#")
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            broken.append(f"{rel}: broken relative link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved):
                broken.append(
                    f"{rel}: broken anchor -> {target} "
                    f"(no such heading in {resolved.name})"
                )
    return broken


def main(argv: "list[str] | None" = None) -> int:
    del argv
    broken: list[str] = []
    checked = 0
    anchor_cache: "dict[Path, set[str]]" = {}
    for path in doc_files():
        broken.extend(check_file(path, anchor_cache))
        checked += 1
    if broken:
        print("\n".join(broken))
        print(f"\n{len(broken)} broken link(s) across {checked} files")
        return 1
    print(f"docs link check: {checked} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
