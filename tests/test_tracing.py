"""The traced benchmark wraps maxsurf functions by module or class attribute
name, so a refactor that drops or renames one of them breaks ``--trace 1``."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def _watched(tracing) -> list[tuple[object, str]]:
    """Where the tracer puts each wrapper: a method on its class; a function in its defining module, or,
    for one that recurses through its module global, in every other traced module that imports it; and
    both ``_gk15`` kernels."""
    modules = [importlib.import_module(m) for m in tracing.MODULES]
    watched = []
    for name, (home, path, recursive) in tracing.TRACED.items():
        owner = importlib.import_module(home)
        *cls, attr = path.split(".")
        if cls:
            watched.append((getattr(owner, cls[0]), attr))
        elif not recursive:
            watched.append((owner, attr))
        else:
            fn = vars(owner)[attr]
            holders = [(mod, attr) for mod in modules if mod is not owner and vars(mod).get(attr) is fn]
            assert holders, f"{name}: no traced module imports {attr}"
            watched += holders
    return watched + [(importlib.import_module(m), "_gk15") for m in ("maxsurf.weierstrass", "maxsurf.verify")]


def test_tracer_installs_on_every_traced_name():
    tracing = _tracing()
    watched = _watched(tracing)
    before = [vars(owner)[name] for owner, name in watched]  # a class's own entry, not a bound method
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, name), original in zip(watched, before):
            assert vars(owner)[name] is not original, f"{owner.__name__}.{name} not wrapped"
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(watched, before):
        assert vars(owner)[name] is original
