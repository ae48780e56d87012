#!/usr/bin/env python3
"""Span inventory checker (CI docs job).

Collects every trace span the code emits — the (category, name) string
literals of each `obs::Span` and `obs::StageScope` construction under
src/ and examples/ — and compares them with the span table in
docs/OBSERVABILITY.md (the `| cat | spans |` table). Fails listing every
span the code emits that the table lacks, every span the table lists
that the code does not emit, and every construction whose arguments are
not string literals (the checker could not see what it emits).

Usage: scripts/check_docs_spans.py [repo_root]
"""

import re
import sys
from pathlib import Path

SOURCE_DIRS = ("src", "examples")
DOC = Path("docs/OBSERVABILITY.md")

# `obs::Span var("cat", "name")` and
# `obs::StageScope var("prefix", "cat", "name")`; arguments may wrap lines.
DECL_RE = re.compile(r"obs::(Span|StageScope)\s+\w+\s*\(([^;]*?)\)\s*;", re.S)
LITERAL_RE = re.compile(r'^\s*"([^"]*)"\s*$')
ROW_RE = re.compile(r"^\s*\|\s*`([^`]+)`\s*\|(.*)\|\s*$")


def emitted_spans(root: Path):
    spans, unparsed = set(), []
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".cpp", ".h"):
                continue
            text = path.read_text(encoding="utf-8")
            for match in DECL_RE.finditer(text):
                kind, args = match.group(1), match.group(2).split(",")
                literals = [LITERAL_RE.match(a) for a in args]
                want = 2 if kind == "Span" else 3
                line = text[: match.start()].count("\n") + 1
                where = f"{path.relative_to(root)}:{line}"
                if len(args) != want or not all(literals):
                    unparsed.append(where)
                    continue
                cat, name = (m.group(1) for m in literals[-2:])
                spans.add((cat, name))
    return spans, unparsed


def documented_spans(doc: Path):
    spans = set()
    in_table = False
    for line in doc.read_text(encoding="utf-8").splitlines():
        if re.match(r"^\s*\|\s*cat\s*\|\s*spans\s*\|", line):
            in_table = True
            continue
        if not in_table:
            continue
        if re.match(r"^\s*\|[-\s|]*\|\s*$", line):
            continue  # the header separator
        row = ROW_RE.match(line)
        if row is None:
            break  # first line after the table
        cat = row.group(1)
        for name in re.findall(r"`([^`]+)`", row.group(2)):
            spans.add((cat, name))
    return spans


def check(root: Path) -> int:
    code, unparsed = emitted_spans(root)
    docs = documented_spans(root / DOC)
    errors = [f"{where}: span arguments are not string literals"
              for where in unparsed]
    errors += [f"{DOC}: span table lacks emitted span {cat}/{name}"
               for cat, name in sorted(code - docs)]
    errors += [f"{DOC}: span table lists {cat}/{name}, which no code emits"
               for cat, name in sorted(docs - code)]
    for e in errors:
        print(e, file=sys.stderr)
    print(f"checked {len(code)} emitted spans against {len(docs)} documented, "
          f"{len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    sys.exit(check(root.resolve()))
