"""The seeded config generator and BENCHMARK.json agree with the runner."""

import json

import pytest

import configgen
import run
from bilattice.cli_io import parse_config
from conftest import ROOT

CONFIG_DIR = ROOT / "src" / "bilattice" / "configs"


def _size(text):
    spec = parse_config(text).sweep
    return (
        spec.engine,
        len(spec.resolved_rhos()),
        len(spec.resolved_phis()),
        spec.n_bz,
        spec.n_q,
        None if spec.probe_grid is None else len(spec.probe_grid),
        spec.lattice.cell_count,
    )


@pytest.mark.parametrize("workload", configgen.WORKLOADS)
def test_same_seed_same_configs(workload):
    assert configgen.generate(workload, 7, CONFIG_DIR) == configgen.generate(workload, 7, CONFIG_DIR)


@pytest.mark.parametrize("workload", configgen.WORKLOADS)
def test_seed_changes_values_not_sizes(workload):
    runs = {seed: configgen.generate(workload, seed, CONFIG_DIR) for seed in (1, 2, 3)}
    assert runs[1] != runs[2]
    sizes = {seed: [(r.name, r.fmt, _size(r.text)) for r in rs] for seed, rs in runs.items()}
    assert sizes[1] == sizes[2] == sizes[3]


def test_sizes_are_the_figures_sizes():
    for workload in configgen.WORKLOADS:
        for spec in configgen.generate(workload, 1, CONFIG_DIR):
            figure = _size((CONFIG_DIR / f"{spec.name}.cfg").read_text())
            derived = _size(spec.text)
            # everything but the number of rho points is the figure's
            assert derived[0] == figure[0] and derived[2:] == figure[2:]


def test_benchmark_json_matches_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    # bands is runnable by hand but not listed, see run.py
    assert [w["name"] for w in doc["workloads"]] == [w for w in configgen.WORKLOADS if w != "bands"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
