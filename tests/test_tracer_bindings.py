"""The benchmark tracer wraps package functions by name; every name must exist.

bench/traced.py raises when a listed function is missing, but only the
benchmark's own suite runs it.  Loading its tables here makes a refactor that
renames or drops a traced function fail the package tests as well.  The
tracer finds the modules it wraps in sys.modules, where the lazily loaded
ones sit before they run, so one traced command also runs here in a fresh
interpreter, as the benchmark runs it.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "bench" / "traced.py"


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


def test_a_traced_embed_writes_the_untraced_certificate(tmp_path):
    diagram = tmp_path / "k3.txt"
    diagram.write_text("n 3\nedge 1 2\nedge 1 3\nedge 2 3\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    certs = {}
    for name, prefix in (("plain", ["-m", "coxcert"]), ("traced", [str(TRACED), str(tmp_path / "trace.jsonl")])):
        certs[name] = tmp_path / f"{name}.json"
        argv = [sys.executable, *prefix, "embed", str(diagram), "--out", str(certs[name])]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, (name, run.stderr)
    assert certs["traced"].read_bytes() == certs["plain"].read_bytes()
    lines = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines()]
    assert lines[0]["exit"] == 0
    # the wrappers reached the lazily loaded exactcore modules
    calls = {line["name"]: line["calls"] for line in lines if line["type"] == "count"}
    assert all(calls[name] > 0 for name in ("exactcore.poly_gcd", "exactcore.quad_sign", "exactcore.quad_mul"))
    # The renderers the tracer looks up in cli, which serves them from
    # certificate, are the ones embed calls: certificate_payload and
    # canonical_json each open a top-level render span, and _rat's spans nest
    # in the first.
    assert calls["cli.render"] > 0
    renders = [line for line in lines if line["type"] == "span" and line["name"] == "cli.render"]
    assert sum(span["parent"] is None for span in renders) == 2 < len(renders)
