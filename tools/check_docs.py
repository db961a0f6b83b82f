#!/usr/bin/env python3
"""Documentation consistency checker (CI gate).

Six checks, all cheap and dependency-free (CLI parsers, the event
vocabulary and the knob list are read via ``ast``, so no simulator
import is needed):

1. **Intra-repo links** — every relative markdown link in README.md and
   ``docs/*.md`` must resolve to an existing file (anchors stripped;
   paths tried relative to the containing file, then to the repo root).
2. **Flag coverage** — every long CLI flag defined by ``add_argument``
   in a tracked parser module must be documented in its paired doc
   (see ``FLAG_PAIRS``).
3. **Stale flags** — every flag row in a paired doc's CLI flag table(s)
   (markdown table rows whose first cell starts with ``--``) must still
   exist in its parser, so removed flags cannot linger in the docs.
4. **Event kinds** — the kinds in the "Event taxonomy" table of
   ``docs/telemetry.md`` must be exactly ``EVENT_KINDS`` of
   ``src/repro/telemetry/events.py``, the one list of trace, coverage
   and flight-recorder kinds.
5. **Environment variables** — every ``REPRO_*`` name under ``src/``
   must be documented, and every documented one must exist in ``src/``.
6. **Knob list** — ``KNOBS`` of ``src/repro/__main__.py``, the names the
   figure CLI accepts, must be exactly the ``REPRO_*`` names the rest of
   ``src/`` reads, so a retired knob cannot stay accepted and a new one
   cannot be refused.

Exit status 0 when clean, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: (parser module, documenting markdown file[, flag subset]) entries
#: kept in lockstep. Without a third element every flag the module
#: defines must appear in the doc; with one, only the listed flags are
#: required there (for flags whose home doc is a second file — e.g. the
#: resilience flags of the figure CLI are documented in
#: ``docs/resilience.md`` as well as the harness guide).
FLAG_PAIRS = [
    ("src/repro/__main__.py", "docs/harness.md"),
    ("src/repro/__main__.py", "docs/resilience.md",
     ("--audit", "--keep-going", "--resume")),
    ("src/repro/__main__.py", "docs/telemetry.md",
     ("--trace", "--trace-out")),
    ("src/repro/verify/cli.py", "docs/verification.md"),
    ("src/repro/verify/diff_cli.py", "docs/verification.md"),
]

#: ``REPRO_*`` environment variables that are implementation plumbing,
#: not user surface; exempt from the documentation requirement.
ENV_INTERNAL = {
    "REPRO_TRACE_WORKER",  # set by the pool to route worker trace parts
}

#: The module whose ``KNOBS`` tuple lists every ``REPRO_*`` name read.
KNOBS_MODULE = "src/repro/__main__.py"

#: The event vocabulary and the one doc table that lists it.
EVENTS_MODULE = "src/repro/telemetry/events.py"
EVENTS_DOC = "docs/telemetry.md"
EVENTS_HEADING = "## Event taxonomy"

#: Markdown inline link: [text](target), ignoring images and code spans.
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^()\s]+)\)")
#: First cell of a markdown table row that documents a CLI flag.
_FLAG_ROW = re.compile(r"^\|\s*`(--[a-z][a-z0-9-]*)[` =\[]")


def doc_files() -> "list[pathlib.Path]":
    return [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))


def parser_flags(module: pathlib.Path) -> "set[str]":
    """Long option strings of every ``add_argument`` call in ``module``."""
    tree = ast.parse(module.read_text())
    flags = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "add_argument"):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value.startswith("--"):
                    flags.add(arg.value)
    return flags


def check_links() -> "list[str]":
    problems = []
    for path in doc_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for match in _LINK.finditer(line):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                plain = target.split("#", 1)[0]
                if not plain:
                    continue
                local = (path.parent / plain).resolve()
                rooted = (REPO / plain).resolve()
                if not local.exists() and not rooted.exists():
                    problems.append(
                        f"{path.relative_to(REPO)}:{lineno}: "
                        f"broken link -> {target}"
                    )
    return problems


def check_flags(
    module_rel: str, doc_rel: str, only: "tuple[str, ...] | None" = None
) -> "list[str]":
    module = REPO / module_rel
    doc = REPO / doc_rel
    if not module.exists():
        return [f"{module_rel}: missing (flag check needs it)"]
    if not doc.exists():
        return [f"{doc_rel}: missing (flag check needs it)"]
    problems = []
    defined = parser_flags(module)
    if only is not None:
        unknown = sorted(set(only) - defined)
        for flag in unknown:
            problems.append(
                f"check_docs.FLAG_PAIRS: {flag} is not defined in {module_rel}"
            )
        defined &= set(only)
    doc_text = doc.read_text()
    for flag in sorted(defined):
        if flag not in doc_text:
            problems.append(
                f"{doc_rel}: CLI flag {flag} ({module_rel}) is undocumented"
            )
    return problems


def documented_flags(doc: pathlib.Path) -> "set[str]":
    """Flags appearing as rows of the doc's CLI flag table(s)."""
    documented = set()
    for line in doc.read_text().splitlines():
        match = _FLAG_ROW.match(line.strip())
        if match:
            documented.add(match.group(1))
    return documented


def check_stale_flags() -> "list[str]":
    """Every documented flag row must still exist in *some* paired parser.

    Checked per doc rather than per pair: two parsers may share one doc
    (e.g. the verify and diff CLIs both live in ``docs/verification.md``),
    so a row is stale only when no parser paired with that doc defines
    it. Docs paired only through restricted subsets keep the old rule:
    rows outside the union of subsets belong to no pair here and are
    ignored.
    """
    per_doc: "dict[str, dict]" = {}
    for pair in FLAG_PAIRS:
        module_rel, doc_rel = pair[0], pair[1]
        only = pair[2] if len(pair) > 2 else None
        module = REPO / module_rel
        if not module.exists() or not (REPO / doc_rel).exists():
            continue  # reported by check_flags
        entry = per_doc.setdefault(
            doc_rel, {"defined": set(), "subsets": set(), "unrestricted": False}
        )
        flags = parser_flags(module)
        if only is None:
            entry["unrestricted"] = True
            entry["defined"] |= flags
        else:
            entry["defined"] |= flags & set(only)
            entry["subsets"] |= set(only)
    problems = []
    for doc_rel, entry in sorted(per_doc.items()):
        documented = documented_flags(REPO / doc_rel)
        if not entry["unrestricted"]:
            documented &= entry["subsets"]
        for flag in sorted(documented - entry["defined"]):
            problems.append(
                f"{doc_rel}: flag {flag} is documented but no longer "
                f"defined in any parser paired with this doc"
            )
    return problems


_ENV_VAR = re.compile(r"\bREPRO_[A-Z_]+\b")


def check_env_vars() -> "list[str]":
    """Keep the ``REPRO_*`` surface and its documentation in lockstep.

    Every variable the simulator reads must be mentioned somewhere in
    README.md or ``docs/*.md`` (except :data:`ENV_INTERNAL`), and every
    variable the docs mention must still exist in the source, so a
    renamed knob cannot leave its old name lingering in the docs.
    """
    in_src: "set[str]" = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        in_src |= set(_ENV_VAR.findall(path.read_text()))
    in_docs: "set[str]" = set()
    for path in doc_files():
        in_docs |= set(_ENV_VAR.findall(path.read_text()))
    problems = []
    for var in sorted(in_src - in_docs - ENV_INTERNAL):
        problems.append(f"docs: environment variable {var} is undocumented")
    for var in sorted(in_docs - in_src):
        problems.append(
            f"docs: environment variable {var} is documented but never "
            "read under src/"
        )
    return problems


def assigned_strings(module: pathlib.Path, name: str) -> "set[str]":
    """The string tuple assigned to ``name`` at any level of ``module``."""
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == name for t in targets):
                return set(ast.literal_eval(node.value))
    return set()


def event_kinds(module: pathlib.Path) -> "set[str]":
    """The string tuple assigned to ``EVENT_KINDS`` in ``module``."""
    return assigned_strings(module, "EVENT_KINDS")


def check_knobs() -> "list[str]":
    """``KNOBS`` must list exactly the ``REPRO_*`` names read elsewhere
    under ``src/`` (the module that holds it is left out, since it
    names every knob)."""
    module = REPO / KNOBS_MODULE
    if not module.exists():
        return [f"{KNOBS_MODULE}: missing (knob check needs it)"]
    listed = assigned_strings(module, "KNOBS")
    read: "set[str]" = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        if path != module:
            read |= set(_ENV_VAR.findall(path.read_text()))
    problems = [
        f"{KNOBS_MODULE}: KNOBS lists {var}, which nothing else under "
        "src/ reads"
        for var in sorted(listed - read)
    ]
    problems += [
        f"{KNOBS_MODULE}: {var} is read under src/ but missing from KNOBS "
        "(the figure CLI would refuse it)"
        for var in sorted(read - listed)
    ]
    return problems


def documented_kinds(doc: pathlib.Path) -> "set[str]":
    """Backticked kinds in the first cell of the event taxonomy table."""
    kinds: "set[str]" = set()
    in_section = False
    for line in doc.read_text().splitlines():
        if line.startswith("## "):
            in_section = line.strip() == EVENTS_HEADING
        elif in_section and line.startswith("|"):
            first = line.split("|")[1]
            kinds |= set(re.findall(r"`([^`]+)`", first))
    return kinds


def check_event_kinds() -> "list[str]":
    """The doc's event table and ``EVENT_KINDS`` must list the same kinds."""
    module, doc = REPO / EVENTS_MODULE, REPO / EVENTS_DOC
    if not module.exists() or not doc.exists():
        return [f"{EVENTS_MODULE} and {EVENTS_DOC} are needed for the kind check"]
    in_code, in_doc = event_kinds(module), documented_kinds(doc)
    problems = [
        f"{EVENTS_DOC}: event kind {kind} is in EVENT_KINDS but not in "
        "the event taxonomy table"
        for kind in sorted(in_code - in_doc)
    ]
    problems += [
        f"{EVENTS_DOC}: event kind {kind} is documented but not in "
        f"EVENT_KINDS ({EVENTS_MODULE})"
        for kind in sorted(in_doc - in_code)
    ]
    return problems


def main() -> int:
    problems = check_links()
    problems += check_event_kinds()
    problems += check_env_vars()
    problems += check_knobs()
    for pair in FLAG_PAIRS:
        problems += check_flags(*pair)
    problems += check_stale_flags()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    flags = sum(len(parser_flags(REPO / pair[0])) for pair in FLAG_PAIRS)
    files = len(doc_files())
    print(f"check_docs: OK ({files} doc files, {flags} CLI flags)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
