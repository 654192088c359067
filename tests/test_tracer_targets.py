"""The benchmark's tracer wraps ``wandset`` functions by name; a renamed or
deleted function would only show up in a traced benchmark run, so check here
that every name it wraps still resolves to something callable."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    # loaded from its file, without installing it, so nothing is wrapped
    spec = importlib.util.spec_from_file_location("wandset_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves_to_a_callable():
    tracer = load_tracer()
    assert tracer.TARGETS
    broken = []
    for name, paths in tracer.TARGETS.items():
        for module, dotted in paths:
            obj = importlib.import_module(f"wandset.{module}")
            for part in dotted.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                broken.append((name, module, dotted))
    assert broken == []
