"""The benchmark's tracing wrappers must bind to the public functions they name.

`bench/tracing.py` wraps public functions of the five ucfreq modules in the
namespaces their callers read them from.  A rename or removal there would
otherwise surface only in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from ucfreq import cli, lpmodel, ratlp, search, setfam
from ucfreq.setfam import family

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_remove_restore_every_wrapped_attribute():
    mods = SimpleNamespace(cli=cli, lpmodel=lpmodel, ratlp=ratlp, search=search, setfam=setfam)
    before = {name: dict(vars(mod)) for name, mod in vars(mods).items()}
    inst = load_tracing().Instrumentation(mods)
    assert inst.saved
    inst.install()
    try:
        for mod, attr, original, traced in inst.saved:
            assert getattr(mod, attr) is traced and traced is not original
        setfam.minimal_covers(family(2, [[1], [2]]))
        assert "setfam.minimal_covers.small" in inst.tracer.names
    finally:
        inst.remove()
    for mod, attr, original, _ in inst.saved:
        assert getattr(mod, attr) is original
    assert {name: dict(vars(mod)) for name, mod in vars(mods).items()} == before


def test_cover_suite_reaches_the_traced_minimal_covers():
    # The cover suite works on mask tuples and memoises each antichain's side;
    # its memo misses must still call `minimal_covers` as `search` binds it, or
    # a traced run records no `setfam.minimal_covers.small` span to take a median of.
    mods = SimpleNamespace(cli=cli, lpmodel=lpmodel, ratlp=ratlp, search=search, setfam=setfam)
    inst = load_tracing().Instrumentation(mods)
    inst.install()
    try:
        search.verify_cover_theorem(n_max=2, n5_samples=5)
    finally:
        inst.remove()
    assert "setfam.minimal_covers.small" in inst.tracer.names
