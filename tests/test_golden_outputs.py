import json

import pytest

from make_golden_outputs import GOLDEN_PATH, golden_text


def test_outputs_match_the_golden_file():
    expected = GOLDEN_PATH.read_text(encoding="utf-8")
    found = golden_text()
    if found != expected:
        old, new = json.loads(expected), json.loads(found)
        changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        pytest.fail(f"outputs differ from {GOLDEN_PATH.name} at {changed}")
