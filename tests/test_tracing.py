"""The traced benchmark wraps maxsurf functions by module or class attribute
name, so a refactor that drops or renames one of them breaks ``--trace 1``."""

import sys
from pathlib import Path

from maxsurf import expr, verify, weierstrass
from maxsurf.cli import SurfaceConfig
from maxsurf.extension import ExtendedSurface

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer()


def test_tracer_installs_on_every_traced_name():
    watched = [
        (weierstrass, "_gk15"),
        (verify, "_gk15"),
        (expr, "evaluate"),
        (weierstrass, "compile_fn"),
        (weierstrass, "conformal_factor"),
        (weierstrass, "gauss_map"),
        (weierstrass, "surface_path"),
        (SurfaceConfig, "from_file"),
        (SurfaceConfig, "extended_surface"),
        (ExtendedSurface, "evaluate"),
    ]
    before = [vars(owner)[name] for owner, name in watched]  # a class's own entry, not a bound method
    tracer = _tracer()
    try:
        tracer.install()
        for (owner, name), original in zip(watched, before):
            assert vars(owner)[name] is not original, f"{owner.__name__}.{name} not wrapped"
    finally:
        tracer.uninstall()
    for (owner, name), original in zip(watched, before):
        assert vars(owner)[name] is original
