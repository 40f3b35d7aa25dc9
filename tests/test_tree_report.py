"""tools/tree_report.py: the size and the settable surface it reports."""

from __future__ import annotations

import argparse
import dataclasses
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


def test_settable_surface_counts_keys_fields_and_names():
    @dataclasses.dataclass
    class Pair:
        x: float
        y: float = 0.0
        norm: float = dataclasses.field(init=False)   # derived: a caller cannot set it
        LIMIT = 3   # a class attribute, not a field

    @dataclasses.dataclass(frozen=True)
    class Empty:
        pass

    keys = {"engine": ("token", None), "rho": ("length", "in cell"), "planes": ("count", ">= 2")}
    parser = argparse.ArgumentParser()
    parser.add_argument("--verbose", action="store_true")   # an option, not a subcommand
    sub = parser.add_subparsers()
    for name in ("scan", "list"):
        sub.add_parser(name).add_argument("--config")
    assert tree_report.settable_surface(keys, (Pair, Empty), ["a", "b"], parser) == {
        "config_keys": 3,
        "fields": {"Pair": 2, "Empty": 0},
        "public_names": 2,
        "subcommands": 2,
    }
