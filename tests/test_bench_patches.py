"""The traced benchmark patches the package where layers import each other.

``bench/spans.py`` wraps functions by module attribute (``cct.integrate``,
``boundary.classify_grid_point``, ...).  A refactor that removes or
renames one of those import sites breaks the traced run, so every site it
names must resolve.  Its counts come from fields of the returned objects
(``traj.times``, ``result.iterations``), so those must stay too.  The
benchmark files are only read here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cctsens import (
    IntegrationOptions,
    Phase,
    SmibParams,
    compute_cct,
    integrate,
    integrate_with_sensitivities,
    smib_system,
)

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_import_site_resolves():
    spans = _load_spans()
    assert spans.PATCHES
    for module_name, attr, _ in spans.PATCHES:
        module = importlib.import_module(f"cctsens.{module_name}")
        assert callable(getattr(module, attr, None)), f"cctsens.{module_name}.{attr} is gone"
    # Recorder.install also wraps these CLI attributes and builds systems
    # through model.ConstrainedSystem.
    cli = importlib.import_module("cctsens.cli")
    for attr in ("_sweep_chunk", "smib_system", "system_from_expressions", "ProcessPoolExecutor"):
        assert callable(getattr(cli, attr, None)), f"cctsens.cli.{attr} is gone"
    assert callable(importlib.import_module("cctsens.model").ConstrainedSystem)


def test_traced_results_keep_the_fields_the_trace_reads():
    spans = _load_spans()
    params = SmibParams(p_mech=0.5, inertia=0.5, delta_max=1.6, omega_max=0.9)
    system, x0 = smib_system(params), np.array([0.6, 0.2])
    opts = IntegrationOptions(t_max=1.0)
    runs = {
        "integrator.integrate": integrate(system, Phase.POST_FAULT, x0, params.p0, opts),
        "integrator.integrate_with_sensitivities": integrate_with_sensitivities(
            system, Phase.POST_FAULT, x0, params.p0, opts
        ),
    }
    for name, result in runs.items():
        traj = result[0] if isinstance(result, tuple) else result
        info = spans._info_from_result(name, (system, Phase.POST_FAULT), result)
        assert info == {"steps": len(traj.times) - 1, "phase": "post"}, name
        assert info["steps"] > 0, name
    result = compute_cct(system, params.p0)
    assert spans._info_from_result("cct.compute_cct", (system, params.p0), result) == {
        "iterations": result.iterations
    }
    assert result.iterations > 0
