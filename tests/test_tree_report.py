"""tools/tree_report.py: the size, the settable surface and the outputs it reports."""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import sys
from pathlib import Path

from bilattice import cli_io

from conftest import OUTPUT_DIGESTS, recorded_numpy

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[path.stem] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # registered first: dataclasses look their module up
    return module


tree_report = load(ROOT / "tools" / "tree_report.py")


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


@recorded_numpy
def test_bundled_and_seeded_outputs_keep_their_bytes(tmp_path):
    # the seeded bands outputs are left out: each fig2a-sized run takes 0.3-0.8 s
    configgen = load(ROOT / "perfbench" / "configgen.py")
    runs = tree_report.config_runs(cli_io, configgen, ROOT / "src" / "bilattice" / "configs",
                                   ("gaps", "spectra"))
    assert tree_report.outputs(cli_io, runs, tmp_path) == OUTPUT_DIGESTS
