"""The golden CLI corpus (tests/golden/cli.json) still holds, byte for byte.

``tools/golden.py`` writes the corpus and holds the cases; rewriting it is a
contract change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CORPUS = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))


def test_corpus_holds_every_case():
    assert [case["argv"] for case in CORPUS["cases"]] == golden.CASES


def test_public_names_are_pinned():
    assert golden.api() == CORPUS["api"]


def test_library_errors_are_pinned():
    assert [golden.raised(call) for call in golden.ERRORS] == CORPUS["errors"]


@pytest.mark.parametrize(
    "case", CORPUS["cases"], ids=lambda case: " ".join(case["argv"])[:48] or "(none)"
)
def test_cli_case_is_byte_identical(case):
    assert golden.record(case["argv"]) == case
