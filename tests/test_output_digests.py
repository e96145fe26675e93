"""Every output byte of a few short runs against a checked-in digest table.

The runs and the table's format come from tools/compare_outputs.py, whose
--digests mode prints this build's entry of tests/output_digests.json.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_short_runs_write_the_bytes_of_the_digest_table(tmp_path):
    table = json.loads(Path(__file__).with_name("output_digests.json").read_text())
    build = compare_outputs.build()
    if build not in table:
        pytest.skip(f"tests/output_digests.json holds no digests for {build}")
    assert compare_outputs.digests(compare_outputs.ROOT, tmp_path) == table[build]
