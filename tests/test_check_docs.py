"""tools/check_docs.py: the CI docs-consistency gate.

The checker must pass on the repo as committed, and must actually
detect the two drift classes it exists for: broken intra-repo links and
flags that drifted between a parser module and its paired doc (the
pairs in ``FLAG_PAIRS``: the harness CLI and the verify CLI).
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "check_docs.py"

PAIR = ("src/repro/__main__.py", "docs/harness.md")


@pytest.fixture
def checker(monkeypatch, tmp_path):
    """A check_docs module re-pointed at a scratch repo layout."""
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro").mkdir(parents=True)
    main = tmp_path / "src" / "repro" / "__main__.py"
    main.write_text(
        "import argparse\n"
        "p = argparse.ArgumentParser()\n"
        "p.add_argument('--alpha')\n"
        "p.add_argument('--beta-two', '-b', action='store_true')\n"
    )
    (tmp_path / "README.md").write_text("# scratch\n")
    monkeypatch.setattr(module, "REPO", tmp_path)
    monkeypatch.setattr(module, "FLAG_PAIRS", [PAIR])
    return module, tmp_path


def test_real_repo_is_clean():
    result = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "OK" in result.stdout


def test_real_repo_tracks_both_cli_pairs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert PAIR in module.FLAG_PAIRS
    assert ("src/repro/verify/cli.py", "docs/verification.md") in module.FLAG_PAIRS


def test_parser_flags_found_via_ast(checker):
    module, root = checker
    main = root / "src" / "repro" / "__main__.py"
    assert module.parser_flags(main) == {"--alpha", "--beta-two"}


def test_clean_scratch_repo_passes(checker):
    module, root = checker
    (root / "docs" / "harness.md").write_text(
        "| `--alpha X` | sets alpha |\n| `--beta-two` | flag |\n"
        "See [readme](../README.md).\n"
    )
    assert module.check_flags(*PAIR) == []
    assert module.check_links() == []


def test_broken_link_detected(checker):
    module, root = checker
    (root / "docs" / "harness.md").write_text(
        "| `--alpha` | a |\n| `--beta-two` | b |\n"
        "See [missing](no-such-file.md) and [ok](harness.md).\n"
    )
    problems = module.check_links()
    assert len(problems) == 1
    assert "no-such-file.md" in problems[0]


def test_external_links_ignored(checker):
    module, root = checker
    (root / "docs" / "harness.md").write_text(
        "| `--alpha` | a |\n| `--beta-two` | b |\n"
        "[w](https://example.com) [m](mailto:x@y.z) [a](#anchor)\n"
    )
    assert module.check_links() == []


def test_undocumented_flag_detected(checker):
    module, root = checker
    (root / "docs" / "harness.md").write_text("| `--alpha` | only one |\n")
    problems = module.check_flags(*PAIR)
    assert any("--beta-two" in p and "undocumented" in p for p in problems)


def test_stale_documented_flag_detected(checker):
    module, root = checker
    (root / "docs" / "harness.md").write_text(
        "| `--alpha` | a |\n| `--beta-two` | b |\n"
        "| `--gamma` | removed long ago |\n"
    )
    problems = module.check_stale_flags()
    assert any("--gamma" in p and "no longer" in p for p in problems)


def test_two_parsers_sharing_one_doc_do_not_cross_flag(checker, monkeypatch):
    # The verify and diff CLIs both document into docs/verification.md;
    # a row defined by either parser is not stale for the other.
    module, root = checker
    other = root / "src" / "repro" / "other_cli.py"
    other.write_text(
        "import argparse\n"
        "p = argparse.ArgumentParser()\n"
        "p.add_argument('--gamma')\n"
    )
    (root / "docs" / "harness.md").write_text(
        "| `--alpha` | a |\n| `--beta-two` | b |\n| `--gamma` | other's |\n"
    )
    monkeypatch.setattr(
        module,
        "FLAG_PAIRS",
        [PAIR, ("src/repro/other_cli.py", "docs/harness.md")],
    )
    assert module.check_stale_flags() == []
    assert module.check_flags(*PAIR) == []


def test_missing_doc_reported(checker):
    module, _ = checker
    problems = module.check_flags(*PAIR)
    assert any("docs/harness.md" in p and "missing" in p for p in problems)


def test_real_repo_tracks_telemetry_pair():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert ("src/repro/__main__.py", "docs/telemetry.md",
            ("--trace", "--trace-out")) in module.FLAG_PAIRS


def test_undocumented_env_var_detected(checker):
    module, root = checker
    source = root / "src" / "repro" / "knobs.py"
    source.write_text("import os\nX = os.environ.get('REPRO_NEW_KNOB')\n")
    (root / "docs" / "harness.md").write_text("no env vars here\n")
    problems = module.check_env_vars()
    assert any("REPRO_NEW_KNOB" in p and "undocumented" in p for p in problems)


def test_stale_documented_env_var_detected(checker):
    module, root = checker
    (root / "docs" / "harness.md").write_text(
        "| `REPRO_GONE` | long removed |\n"
    )
    problems = module.check_env_vars()
    assert any("REPRO_GONE" in p and "never" in p for p in problems)


def test_internal_env_vars_exempt(checker):
    module, root = checker
    source = root / "src" / "repro" / "knobs.py"
    source.write_text("import os\nos.environ['REPRO_TRACE_WORKER'] = '1'\n")
    assert module.check_env_vars() == []


def test_knob_list_drift_detected(checker):
    module, root = checker
    main = root / "src" / "repro" / "__main__.py"
    main.write_text(
        main.read_text()
        + "KNOBS = ('REPRO_SCALE', 'REPRO_METRICS')\n"
    )
    source = root / "src" / "repro" / "knobs.py"
    source.write_text(
        "import os\n"
        "X = os.environ.get('REPRO_SCALE')\n"
        "Y = os.environ.get('REPRO_NEW_KNOB')\n"
    )
    problems = module.check_knobs()
    assert len(problems) == 2
    assert any("REPRO_METRICS" in p and "nothing else" in p for p in problems)
    assert any("REPRO_NEW_KNOB" in p and "missing from KNOBS" in p
               for p in problems)
    main.write_text(
        main.read_text().replace("'REPRO_METRICS'", "'REPRO_NEW_KNOB'")
    )
    assert module.check_knobs() == []


def test_event_kind_drift_detected(checker):
    module, root = checker
    events = root / "src" / "repro" / "telemetry" / "events.py"
    events.parent.mkdir()
    events.write_text(
        'EVENT_KINDS: "tuple[str, ...]" = ("txn:start", "req:read", "req:write")\n'
    )
    doc = root / "docs" / "telemetry.md"
    table = (
        "## Event taxonomy\n\n| Kind | Meaning |\n| --- | --- |\n"
        "| `txn:start` | issued |\n| `req:read`, `req:write` | requests |\n"
        "\n## Elsewhere\n\n| `dir:alloc` | not the taxonomy table |\n"
    )
    doc.write_text(table)
    assert module.check_event_kinds() == []
    doc.write_text(table.replace("`req:write`", "`req:wirte`"))
    problems = module.check_event_kinds()
    assert len(problems) == 2
    assert any("req:write" in p and "not in the event taxonomy" in p for p in problems)
    assert any("req:wirte" in p and "not in EVENT_KINDS" in p for p in problems)
