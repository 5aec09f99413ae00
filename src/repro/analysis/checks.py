"""repro-check: repo-specific concurrency-invariant static analysis.

The serving stack (engine, supervised process pool, asyncio gateway,
refcounted arena registry) is ~5.6k lines of genuinely concurrent code,
and three PRs in a row shipped review-stage fixes for the *same* defect
classes: work done while holding a pool/arena lock, user callbacks fired
under locks, blocking calls on the event loop, and wall-clock /
monotonic-clock confusion.  Review does not scale; tooling does.  This
module is the shared walking/reporting core; the rule visitors
themselves (RC001–RC009) live in :mod:`repro.analysis.rules`, and each
encodes one invariant those incidents taught us
(``docs/concurrency-invariants.md`` maps rules to incidents).

Usage::

    repro-check [paths ...] [--baseline repro_check_baseline.json]
                [--json repro_check.json] [--write-baseline]

* exit 0: no findings beyond the committed baseline;
* exit 1: new findings (printed, and written to ``--json`` if given);
* ``# repro-check: ignore[RC002]`` on the offending line — or on a
  comment line directly above it — suppresses a finding at the source
  (preferred for deliberate, commented sites; say *why* next to it);
* the baseline JSON absorbs findings that are real but not yet fixed —
  matched by (rule, path, source line text), so unrelated line-number
  churn does not invalidate it.

Everything here is stdlib-only so the CI lint job can run it without
the numeric stack.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field

#: Suppression spelling: ``# repro-check: ignore[RC001]`` or
#: ``ignore[RC001,RC003]`` or ``ignore[*]`` anywhere on the line.
_SUPPRESS_RE = re.compile(r"#\s*repro-check:\s*ignore\[([A-Za-z0-9*,\s]+)\]")

BASELINE_NAME = "repro_check_baseline.json"
DEFAULT_PATHS = ("src/repro",)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source line."""

    rule: str
    path: str  # root-relative, posix separators
    line: int
    message: str
    snippet: str  # the offending source line, stripped

    @property
    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used for baseline matching: line *text*, not line
        number, so edits elsewhere in the file don't invalidate it."""
        return (self.rule, self.path, self.snippet)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class ModuleSource:
    """One parsed file handed to every applicable rule."""

    rel: str  # root-relative posix path
    tree: ast.AST
    lines: list[str]
    #: line number -> set of suppressed rule ids ("*" suppresses all).
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, rule_id: str, lineno: int) -> bool:
        # A suppression lives on the offending line itself, or on the
        # (comment) line directly above — room for a rationale sentence.
        for marks in (self.suppressions.get(lineno), self.suppressions.get(lineno - 1)):
            if marks and ("*" in marks or rule_id in marks):
                return True
        return False

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        lineno = getattr(node, "lineno", 0)
        return Finding(
            rule=rule_id,
            path=self.rel,
            line=lineno,
            message=message,
            snippet=self.line_text(lineno),
        )


def parse_suppressions(lines: list[str]) -> dict[int, set[str]]:
    suppressed: dict[int, set[str]] = {}
    for number, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if rules:
            suppressed[number] = rules
    return suppressed


def load_module(path: str, rel: str) -> ModuleSource | None:
    """Parse one file; None (not a crash) on an unreadable/unparsable one
    — syntax errors are ruff's job, not this analyzer's."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, ValueError):
        return None
    lines = source.splitlines()
    return ModuleSource(
        rel=rel, tree=tree, lines=lines, suppressions=parse_suppressions(lines)
    )


def iter_py_files(paths: list[str], root: str) -> list[tuple[str, str]]:
    """(absolute, root-relative) pairs for every .py under ``paths``."""
    found: list[tuple[str, str]] = []
    for entry in paths:
        absolute = entry if os.path.isabs(entry) else os.path.join(root, entry)
        if os.path.isfile(absolute):
            found.append((absolute, _relpath(absolute, root)))
            continue
        for directory, subdirs, files in os.walk(absolute):
            subdirs[:] = sorted(
                d for d in subdirs if d != "__pycache__" and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    full = os.path.join(directory, name)
                    found.append((full, _relpath(full, root)))
    return found


def _relpath(path: str, root: str) -> str:
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # different drive (Windows)
        rel = path
    return rel.replace(os.sep, "/")


def run_checks(
    paths: list[str], *, root: str, rules=None
) -> tuple[list[Finding], int]:
    """All unsuppressed findings plus the number of files scanned."""
    from repro.analysis.rules import ALL_RULES

    active = list(ALL_RULES if rules is None else rules)
    findings: list[Finding] = []
    scanned = 0
    for absolute, rel in iter_py_files(paths, root):
        module = load_module(absolute, rel)
        if module is None:
            continue
        scanned += 1
        for rule in active:
            if not rule.applies_to(rel):
                continue
            for finding in rule.check(module):
                if not module.is_suppressed(finding.rule, finding.line):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, scanned


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def load_baseline(path: str) -> Counter:
    """Baseline as a multiset of finding keys; empty when absent."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return Counter()
    keys: Counter = Counter()
    for entry in payload.get("findings", []):
        keys[(entry["rule"], entry["path"], entry["snippet"])] += 1
    return keys


def write_baseline(findings: list[Finding], path: str) -> None:
    payload = {
        "version": 1,
        "comment": (
            "Accepted repro-check findings. Every entry must cite a reason "
            "here or at the site; prefer fixing, or an inline "
            "'# repro-check: ignore[RULE]' with rationale, over baselining."
        ),
        "findings": [
            {"rule": f.rule, "path": f.path, "snippet": f.snippet}
            for f in findings
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def split_by_baseline(
    findings: list[Finding], baseline: Counter
) -> tuple[list[Finding], list[Finding], Counter]:
    """(new, accepted, stale) — stale entries name vanished findings (the
    code was fixed; shrink the baseline)."""
    remaining = Counter(baseline)
    new: list[Finding] = []
    accepted: list[Finding] = []
    for finding in findings:
        if remaining.get(finding.baseline_key, 0) > 0:
            remaining[finding.baseline_key] -= 1
            accepted.append(finding)
        else:
            new.append(finding)
    stale = Counter({key: count for key, count in remaining.items() if count > 0})
    return new, accepted, stale


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    from repro.analysis.rules import ALL_RULES

    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Concurrency-invariant static analysis for the serving stack.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to scan (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=os.getcwd(),
        help="repository root paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline JSON (default: <root>/{BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    parser.add_argument("--json", default=None, help="write the full report here")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    root = os.path.abspath(args.root)
    baseline_path = args.baseline or os.path.join(root, BASELINE_NAME)
    findings, scanned = run_checks(list(args.paths), root=root)

    if args.write_baseline:
        write_baseline(findings, baseline_path)
        print(
            f"repro-check: baselined {len(findings)} finding(s) from "
            f"{scanned} file(s) into {baseline_path}"
        )
        return 0

    baseline = Counter() if args.no_baseline else load_baseline(baseline_path)
    new, accepted, stale = split_by_baseline(findings, baseline)

    if args.json:
        report = {
            "scanned_files": scanned,
            "new": [f.as_dict() for f in new],
            "baselined": [f.as_dict() for f in accepted],
            "stale_baseline": [
                {"rule": rule, "path": path, "snippet": snippet, "count": count}
                for (rule, path, snippet), count in sorted(stale.items())
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")

    for finding in new:
        print(finding.render())
    for (rule, path, snippet), count in sorted(stale.items()):
        print(
            f"warning: stale baseline entry {rule} {path!r} ({snippet!r} x{count}) "
            "— the finding is gone; remove it from the baseline",
            file=sys.stderr,
        )
    summary = (
        f"repro-check: {scanned} file(s), {len(new)} new finding(s), "
        f"{len(accepted)} baselined, {len(stale)} stale baseline entr"
        f"{'y' if len(stale) == 1 else 'ies'}"
    )
    print(summary)
    return 1 if new else 0


if __name__ == "__main__":
    raise SystemExit(main())
