"""Checks that the tracing wrappers still see the program.

A rename or a new call path in unionfit must fail here instead of making
the traced run report zero time for a layer.  Run from the repository
root:

    python3 -m pytest -q perfbench/test_tracing.py
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _originals():
    return {
        name: getattr(importlib.import_module(mod), attr)
        for name, (mod, attr, _) in tracing.FUNCTIONS.items()
    }


def test_every_mapped_name_resolves():
    for name, (mod, attr, _) in tracing.FUNCTIONS.items():
        assert callable(_originals()[name]), f"{mod}.{attr}"
    for mod, cls in tracing.CONSTRUCTORS.values():
        assert isinstance(getattr(importlib.import_module(mod), cls), type)


def _snapshot():
    owners = tracing._unionfit_modules() + [
        getattr(importlib.import_module(mod), cls)
        for mod, cls in tracing.CONSTRUCTORS.values()]
    return {(id(owner), key): value
            for owner in owners for key, value in list(vars(owner).items())}


def test_wrappers_reach_every_import_site_and_are_removed():
    originals = list(_originals().values())
    before = _snapshot()
    with tracing.installed(tracing.Recorder()) as sites:
        for module in tracing._unionfit_modules():
            for key, value in vars(module).items():
                assert not any(value is f for f in originals), (
                    f"{module.__name__}.{key} escaped the wrappers")
        # Names the solver, pipeline and experiment bind by from-import.
        for site in [("unionfit.solver", "bundle_from_partition"),
                     ("unionfit.pipeline", "sample_matrix"),
                     ("unionfit.pipeline", "brute_force_oracle"),
                     ("unionfit.experiment", "reduce_solve_lift"),
                     ("unionfit.experiment", "generate_synthetic"),
                     ("unionfit.experiment", "bundle_error")]:
            assert site in sites
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_layer_records_calls_where_the_map_says(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    state = wl.setup(7, tmp_path)
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        args = wl.inputs(state, 0)
        recorder.active = True
        result = wl.call(state, args)
        recorder.active = False
    assert not wl.check(state, args, result).problems
    busy, idle = workloads.EXPECTED_LAYERS[name]
    for layer in busy:
        assert recorder.calls[layer] > 0, f"{layer} recorded no calls on {name}"
    for layer in idle:
        assert recorder.calls[layer] == 0, f"{layer} recorded calls on {name}"
    labelings = recorder.layer_metrics(1)["oracle.labelings"]
    assert labelings == (2 * 2**12 if name == "oracle_certify" else 0)
