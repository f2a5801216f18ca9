"""The benchmark's tracer finds its spans by name; a renamed function would
silently leave its per-layer metric at 0."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    names = [(metric.split(".")[0], fn) for metric, fns in tracing.OPS.items() for fn in fns]
    names += [(layer, fn) for layer, fns in tracing._PRIVATE.items() for fn in fns]
    names.append(("voronoi", "voronoi_check"))
    for layer, dotted in names:
        module = importlib.import_module(f"momentlab.{layer}")
        owner_name, *attrs = dotted.split(".")
        owner = getattr(module, owner_name, None)
        assert getattr(owner, "__module__", None) == module.__name__, f"{layer}.{dotted}"
        for attr in attrs:
            owner = vars(owner).get(attr)
        assert callable(owner), f"{layer}.{dotted}"
