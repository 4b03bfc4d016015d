"""The functions the benchmark's tracer wraps still exist under their names.

perfbench/tracing.py replaces named functions and methods of the package
with timing wrappers, in every module namespace that binds them. A rename or
a move that breaks one of those names fails here, in well under a second,
instead of in a traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _binding(owner, attr):
    """What the tracer replaces: a class's own attribute, or a module's."""
    return vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


def test_every_traced_name_resolves_and_is_wrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    entries = [(name, owner, attr) for name, owner, attr, *_ in tracing.SPANS + tracing.COUNTED]
    originals = [_binding(owner, attr) for _, owner, attr in entries]
    for (name, owner, attr), original in zip(entries, originals):
        assert original is not None, f"{name}: {owner.__name__} has no {attr}"
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.leftover_bindings() == []
    finally:
        tracer.uninstall()
    for (name, owner, attr), original in zip(entries, originals):
        assert _binding(owner, attr) is original, f"{name} not restored"
