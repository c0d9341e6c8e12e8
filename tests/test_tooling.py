"""The benchmark's tracer patches package attributes by name; keep them resolvable."""

import importlib.util
from pathlib import Path

import cegl
import cegl.cli

TRACING = Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstall_restores_every_attribute():
    modules = [cegl.cli, cegl.dataio, cegl.localization, cegl.metrics, cegl.model]
    before = [dict(vars(m)) for m in modules]
    tracer = load_tracing().Tracer()
    tracer.install(cegl)  # raises AttributeError when a patched name is gone
    try:
        for module, snapshot in zip(modules, before):
            changed = [k for k, v in vars(module).items() if snapshot.get(k) is not v]
            assert changed, f"tracer patched nothing in {module.__name__}"
    finally:
        tracer.uninstall()
    for module, snapshot in zip(modules, before):
        after = vars(module)
        assert set(after) == set(snapshot), module.__name__
        restored = [k for k, v in snapshot.items() if after[k] is v]
        assert len(restored) == len(snapshot), module.__name__
