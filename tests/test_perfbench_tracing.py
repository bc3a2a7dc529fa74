"""The benchmark's tracer still finds, wraps and restores every traced cvpulse function."""

import importlib
import importlib.util
import sys
from pathlib import Path

import cvpulse.cli  # noqa: F401  (the tracer patches every loaded cvpulse module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def _bindings():
    """Every cvpulse module attribute and class method, by identity."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cvpulse"]
    out = {}
    for module in modules:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("cvpulse"):
                for method, fn in vars(value).items():
                    out[(value.__module__, f"{name}.{method}")] = fn
    return out


def test_every_traced_layer_resolves():
    tracing = _load_tracing()
    for module_name, attr, _, _ in tracing.LAYERS:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def test_tracer_install_wraps_and_uninstall_restores():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, attr, _, _ in tracing.LAYERS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                current = vars(getattr(owner, cls_name))[method]
                assert current is not before[(module_name, attr)], attr
            else:
                assert getattr(owner, attr) is not before[(module_name, attr)], attr
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
