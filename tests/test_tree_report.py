"""tools/tree_report.py: the size it reports for a package's sources."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "tree_report.py"
spec = importlib.util.spec_from_file_location("tree_report", SCRIPT)
tree_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tree_report)


def test_source_size_counts_lines_and_code_tokens(tmp_path):
    # strings, comments and layout tokens are not code; only .py files count
    (tmp_path / "a.py").write_text('"""Doc."""\n\n# note\nif x:\n    y = "s" + 1  # why\n')
    (tmp_path / "b.py").write_text("z = (1,\n     2)\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert tree_report.source_size(tmp_path) == {"lines": 7, "tokens": 7 + 7}
