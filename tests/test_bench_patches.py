"""The traced benchmark patches the package where layers import each other.

``bench/spans.py`` wraps functions by module attribute (``cct.integrate``,
``boundary.classify_grid_point``, ...).  A refactor that removes or
renames one of those import sites breaks the traced run, so every site it
names must resolve.  The benchmark files are only read here.
"""

import importlib
import importlib.util
from pathlib import Path

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
