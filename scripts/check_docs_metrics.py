#!/usr/bin/env python3
"""Metric inventory checker (CI docs job).

Collects every metric name the code registers under src/ and examples/:
the string literal of each `obs::counter/gauge/histogram("...")` call,
plus the `<prefix>.ns` / `<prefix>.calls` counters each
`obs::StageScope("<prefix>", ...)` registers. Compares them with the
metric inventory table in docs/OBSERVABILITY.md (the `| Name | Kind |
Meaning |` table). Understands the table's shorthands:

  `a.b.c` / `.d`     two names, a.b.c and a.b.d (the short form replaces
                     the last dotted component of the first name)
  `a.<stage>.ns`     a template: any single component in place of <stage>

Fails listing every registered metric the table lacks, every table name
(or template) the code never registers, every kind mismatch, and every
registration whose name is not a string literal (the checker could not
see what it registers).

Usage: scripts/check_docs_metrics.py [repo_root]
"""

import re
import sys
from pathlib import Path

from check_docs_spans import DECL_RE, DOC, LITERAL_RE, SOURCE_DIRS

CALL_RE = re.compile(r"obs::(counter|gauge|histogram)\s*\(")
LITERAL_ARG_RE = re.compile(r'\s*"([^"]*)"\s*\)')
# String literals are kept whole so a `//` inside one is not a comment.
COMMENT_RE = re.compile(r'"(?:\\.|[^"\\\n])*"|//[^\n]*|/\*.*?\*/', re.S)
ROW_RE = re.compile(r"^\s*\|([^|]*)\|\s*(counter|gauge|histogram)\s*\|")


def strip_comments(text: str) -> str:
    def keep(m):
        s = m.group(0)
        return s if s.startswith('"') else "\n" * s.count("\n")
    return COMMENT_RE.sub(keep, text)


def registered_metrics(root: Path):
    metrics, unparsed = {}, []
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in (".cpp", ".h"):
                continue
            text = strip_comments(path.read_text(encoding="utf-8"))
            for match in CALL_RE.finditer(text):
                arg = LITERAL_ARG_RE.match(text, match.end())
                if arg is None:
                    line = text[: match.start()].count("\n") + 1
                    unparsed.append(f"{path.relative_to(root)}:{line}")
                    continue
                metrics.setdefault(arg.group(1), set()).add(match.group(1))
            for match in DECL_RE.finditer(text):
                if match.group(1) != "StageScope":
                    continue
                prefix = LITERAL_RE.match(match.group(2).split(",")[0])
                if prefix is None:
                    continue  # check_docs_spans.py reports it
                for suffix in (".ns", ".calls"):
                    metrics.setdefault(prefix.group(1) + suffix,
                                       set()).add("counter")
    return metrics, unparsed


def documented_metrics(doc: Path):
    """Returns [(name_or_template, kind)] from the inventory table."""
    rows = []
    in_table = False
    for line in doc.read_text(encoding="utf-8").splitlines():
        if re.match(r"^\s*\|\s*Name\s*\|\s*Kind\s*\|", line):
            in_table = True
            continue
        if not in_table:
            continue
        if re.match(r"^\s*\|[-\s|]*\|\s*$", line):
            continue  # the header separator
        row = ROW_RE.match(line)
        if row is None:
            break  # first line after the table
        names = re.findall(r"`([^`]+)`", row.group(1))
        for name in names:
            if name.startswith("."):
                name = names[0].rsplit(".", 1)[0] + name
            rows.append((name, row.group(2)))
    return rows


def template_re(name: str):
    parts = re.split(r"<[^>]+>", name)
    return re.compile("[^.]+".join(re.escape(p) for p in parts) + r"\Z")


def check(root: Path) -> int:
    code, unparsed = registered_metrics(root)
    docs = documented_metrics(root / DOC)
    errors = [f"{where}: metric name is not a string literal"
              for where in unparsed]
    documented = set()
    for name, kind in docs:
        pattern = template_re(name)
        hits = [m for m in code if pattern.match(m)]
        if not hits:
            errors.append(f"{DOC}: metric table lists {name}, "
                          "which no code registers")
        for hit in hits:
            documented.add(hit)
            if code[hit] != {kind}:
                errors.append(f"{DOC}: {hit} is documented as a {kind}, "
                              f"registered as {'/'.join(sorted(code[hit]))}")
    errors += [f"{DOC}: metric table lacks registered metric {name}"
               for name in sorted(set(code) - documented)]
    for e in errors:
        print(e, file=sys.stderr)
    print(f"checked {len(code)} registered metrics against {len(docs)} "
          f"documented names, {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    sys.exit(check(root.resolve()))
