"""The benchmark's per-layer tracer wraps program functions by name; a
rename or removal of a traced name must fail here, not in a traced run."""

import importlib.util
from pathlib import Path

from reebpinch import contact_dynamics

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall():
    tracing = load_tracing()
    before = {(module, attr): getattr(module, attr)
              for module, attr, _ in tracing.TRACED}
    reeb = contact_dynamics.StarshapedSurface.reeb
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), fn in before.items():
            assert getattr(module, attr) is not fn, attr
        assert contact_dynamics.StarshapedSurface.reeb is not reeb
    finally:
        tracer.uninstall()
    for (module, attr), fn in before.items():
        assert getattr(module, attr) is fn, attr
    assert contact_dynamics.StarshapedSurface.reeb is reeb

