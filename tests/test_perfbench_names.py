"""The dirad names the benchmark harness in ``perfbench/`` binds must exist.

perfbench times dirad by wrapping functions at the names their callers look
up (``perfbench/spans.py``'s ``WRAPPED`` table), stamps each run with
``dirad._backend.backend_name()``, and checks score files with
``perfbench/oracle.py``. Its own self-tests are not collected with these, so
a rename inside dirad would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name):
    """Import ``perfbench/<name>.py`` without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(monkeypatch):
    wrapped = load(monkeypatch, "spans").WRAPPED
    assert wrapped
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_backend_name_is_a_string():
    from dirad._backend import backend_name

    assert isinstance(backend_name(), str)


def test_oracle_imports(monkeypatch):
    oracle = load(monkeypatch, "oracle")
    assert callable(oracle.sample_rows) and callable(oracle.mismatches)
