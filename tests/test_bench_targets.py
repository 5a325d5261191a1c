"""The traced benchmark (`bench/run.py --trace 1`) wraps the package functions
that `bench/spans.py` names. A name that no longer resolves fails that run, so
every one is checked here, the way `Recorder._install` looks it up."""

import importlib.util
from pathlib import Path

import codedpir

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    """bench/spans.py as a module, loaded from its file (it is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_package_function():
    spans = load_spans()
    targets = [(mod_name, attr) for mod_name, attr, _ in spans.TARGETS + spans.NAMED_TARGETS]
    assert targets
    for mod_name, attr in targets:
        module = getattr(codedpir, mod_name)
        if "." in attr:  # a method, looked up in its class's own namespace
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), f"{mod_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
