"""The benchmark tracer wraps package functions by name; every name must exist.

bench/traced.py raises when a listed function is missing, but only the
benchmark's own suite runs it.  Loading its tables here makes a refactor that
renames or drops a traced function fail the package tests as well.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("_coxcert_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    traced = _load_traced()
    tables = (traced.STAGES, traced.TOP_LEVEL_STAGES, traced.TIMED_KERNELS, traced.COUNTED)
    entries = [entry for table in tables for entry in table]
    assert entries
    for metric, mod_name, attr in entries:
        target = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(target), (metric, mod_name, attr)
