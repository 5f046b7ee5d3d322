"""The answers of `tools/answer_digest.py`'s quick subset, pinned.

`quick_records` holds at least one record of every kind the full digest
covers: rank reports on both routes, matrix bytes, certificate points and
witnesses, the apolarity layer with Waring weights, CLI JSON, Hilbert
functions, both ideal routes, Cramer tables and route B on and off its
leading-term block.  A change that alters an answer on purpose updates the
pin below in the same change and says which records changed and why.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "answer_digest.py"
PINNED = (260, "1d9b2536ef6da441f6a92d9875dc187d4eb96308b168c4eea9d7b9d60edf721e")


def test_quick_answer_digest_is_pinned():
    spec = importlib.util.spec_from_file_location("answer_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.digest(tool.quick_records()) == PINNED
