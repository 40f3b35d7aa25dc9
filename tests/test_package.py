"""Package surface: the public names, and the engines a run imports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bilattice

PUBLIC_NAMES = {
    "AtomSpecies", "BandStructure", "BlochMatrix", "CavityConfig", "Cell", "Gap",
    "LatticeConfig", "ScatterMatrix", "Spectrum", "SteadyState", "SweepSpec", "Table",
    "analytic_band_edges", "build_bloch_matrix", "cavity_coupling",
    "cavity_spectrum_scan", "cell_dephasing", "collective_coupling_squared",
    "compute_bands", "dimer_matrix", "eigenfrequencies", "find_gaps",
    "freespace_coupling", "gap_widths_vs_rho", "output_intensity",
    "output_intensity_closed_form", "period_matrix", "polarizability",
    "rabi_peak_frequencies", "run_sweep", "spectrum_scan", "stack_coefficients",
    "steady_state", "transmission_closed_form", "xi_parameter",
}

# prints the engine modules loaded after the imports, after parse_config and
# after run_sweep, for the bundled config argv[1] with argv[2] replaced by argv[3]
PROBE = """
import json, sys
import bilattice
from bilattice.cli_io import bundled_config_text, parse_config
from bilattice.sweep import run_sweep

def engines():
    return sorted(m for m in ("bandstructure", "cavity", "transfer_matrix")
                  if "bilattice." + m in sys.modules)

name, *edit = sys.argv[1:]
text = bundled_config_text(name).replace(*edit) if edit else bundled_config_text(name)
steps = [engines()]
cfg = parse_config(text)
steps.append(engines())
run_sweep(cfg.sweep)
steps.append(engines())
print(json.dumps(steps))
"""


def test_public_names_resolve_to_their_modules():
    assert len(bilattice.__all__) == 35 and set(bilattice.__all__) == PUBLIC_NAMES
    for name in bilattice.__all__:
        obj = getattr(bilattice, name)
        module = sys.modules[obj.__module__]
        assert module.__name__ == f"bilattice.{bilattice._MODULE_OF[name]}"
        assert getattr(module, name) is obj
    namespace = {}
    exec("from bilattice import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert set(bilattice.__all__) <= set(dir(bilattice))
    with pytest.raises(AttributeError, match="no_such_name"):
        bilattice.no_such_name
    with pytest.raises(ImportError):
        exec("from bilattice import no_such_name", {})



def library_use_section() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_the_public_names_by_module():
    # README "Library use": a **`module`** line, then one - `name`: ... line per name
    listed, module = {}, None
    for line in library_use_section().splitlines():
        if line.startswith("**`") and line.endswith("`**"):
            module = line.strip("*`")
        elif line.startswith("- `"):
            listed.setdefault(module, []).append(line.split("`")[1])
    assert {m: sorted(names) for m, names in listed.items()} == {
        m: sorted(names) for m, names in bilattice._EXPORTS.items()
    }


def test_readme_library_example_runs():
    # the one Python block of README "Library use", as a user would run it
    blocks = library_use_section().split("```python\n")[1:]
    assert len(blocks) == 1
    src = Path(bilattice.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::UserWarning",
         "-c", blocks[0].split("```", 1)[0]],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "config, engine",
    [
        (("fig2a", "n_q = 401", "n_q = 3"), "bandstructure"),
        (("fig2b",), "bandstructure"),
        (("fig6",), "transfer_matrix"),
        (("fig9",), "cavity"),
    ],
    ids=["fig2a", "fig2b", "fig6", "fig9"],
)
def test_a_run_imports_only_its_engine(config, engine):
    # a cavity config holds a CavityConfig, so parsing one imports its engine
    src = Path(bilattice.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *config],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    parsed = [engine] if engine == "cavity" else []
    assert json.loads(proc.stdout) == [[], parsed, [engine]]
