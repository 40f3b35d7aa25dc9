"""Size and output digests of a bilattice checkout, as one JSON object.

    python tools/tree_report.py ROOT > report.json

``ROOT`` is a checkout.  The report holds

* ``src``: the lines and the code tokens of ``ROOT/src/bilattice`` (Python's
  ``tokenize``, without strings, comments or layout tokens), and its
  settable surface: the number of config keys (``cli_io._KEYS``), the
  number of ``__init__`` fields of each config dataclass (``AtomSpecies``,
  ``LatticeConfig``, ``CavityConfig``, ``SweepSpec``), the number of public
  names (``bilattice.__all__``) and the number of CLI subcommands
  (``cli_io._build_parser()``);
* ``outputs``: for each bundled config and each ``perfbench/configgen.py``
  config (seeds 1-3 of gaps, spectra and bands), written as CSV and as JSON
  through ``cli_io.main``, the exit code, the sha256 of the output (null
  when none was written) and whether an errors sidecar was written.

Diffing the reports of two checkouts checks in one step that a change keeps
every output's bytes and exit code, and how it changes the size of the
sources and the number of values a caller can set.  The checkout's own
``src`` and ``perfbench`` are imported, with no bytecode written; every
output goes to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
import tokenize
from pathlib import Path

SEEDS = (1, 2, 3)
FORMATS = ("csv", "json")
# token types that carry no code: strings, comments and layout
SKIPPED = {
    tokenize.STRING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
    *(getattr(tokenize, name) for name in ("FSTRING_START", "FSTRING_MIDDLE", "FSTRING_END")
      if hasattr(tokenize, name)),
}


def source_size(package: Path) -> dict:
    """Lines and code tokens of the package's Python files."""
    lines = tokens = 0
    for path in sorted(package.glob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        tokens += sum(tok.type not in SKIPPED
                      for tok in tokenize.tokenize(io.BytesIO(data).readline))
    return {"lines": lines, "tokens": tokens}


def settable_surface(keys, config_classes, public_names, parser) -> dict:
    """Counts of what a caller can set: config keys, the ``__init__`` fields
    of each config dataclass, public names, and the subcommands of the CLI's
    argparse ``parser``."""
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    return {
        "config_keys": len(keys),
        "fields": {cls.__name__: sum(f.init for f in dataclasses.fields(cls))
                   for cls in config_classes},
        "public_names": len(public_names),
        "subcommands": len(subcommands),
    }


def run_output(cli_io, name: str, text: str, fmt: str, work: Path) -> dict:
    """Exit code, output digest and sidecar of one config run through ``cli_io.main``."""
    config, out = work / f"{name}.cfg", work / f"{name}.{fmt}"
    sidecar = Path(f"{out}.errors.log")
    config.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_io.main(["scan", "--config", str(config), "--out", str(out), "--format", fmt])
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    report = {"exit": code, "sha256": digest, "sidecar": sidecar.exists()}
    for path in (config, out, sidecar):
        path.unlink(missing_ok=True)
    return report


def tree_report(root: Path) -> dict:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import bilattice
    import configgen
    from bilattice import cavity, cli_io, core, sweep

    if Path(cli_io.__file__).resolve().parents[2] != root.resolve():
        raise SystemExit(f"imported {cli_io.__file__}, not the checkout at {root}")
    config_dir = root / "src" / "bilattice" / "configs"
    runs = [(f"bundled/{name}", cli_io.bundled_config_text(name))
            for name in cli_io.BUNDLED_CONFIGS]
    runs += [(f"{workload}/{seed}/{spec.name}", spec.text)
             for workload in configgen.WORKLOADS for seed in SEEDS
             for spec in configgen.generate(workload, seed, config_dir)]
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, text in runs:
            for fmt in FORMATS:
                name = key.rsplit("/", 1)[1]
                outputs[f"{key}.{fmt}"] = run_output(cli_io, name, text, fmt, Path(tmp))
    surface = settable_surface(
        cli_io._KEYS,
        (core.AtomSpecies, core.LatticeConfig, cavity.CavityConfig, sweep.SweepSpec),
        bilattice.__all__,
        cli_io._build_parser(),
    )
    return {"src": {**source_size(root / "src" / "bilattice"), **surface}, "outputs": outputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("root", type=Path, help="checkout to report on")
    args = parser.parse_args(argv)
    print(json.dumps(tree_report(args.root), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
