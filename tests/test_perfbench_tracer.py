"""The benchmark's span tracer finds every library name it wraps.

``perfbench/tracer.py`` wraps the functions in its ``TARGETS`` list from
outside the package.  A library change that renames or deletes one of them
fails here, in the unit suite, rather than in a traced benchmark run.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr):
    """The object bound to ``attr`` in ``module``; a "Class.method" name
    reads the class's own dict, where the tracer puts its wrapper."""
    owner = importlib.import_module(module)
    *cls, name = attr.split(".")
    if cls:
        return vars(getattr(owner, cls[0]))[name]
    return getattr(owner, name)


def test_tracer_installs_and_uninstalls_every_target():
    tracer = _load_tracer()
    originals = {(m, a): _resolve(m, a) for m, a, _ in tracer.TARGETS}
    spans = tracer.Tracer()
    spans.install()
    try:
        wrapped = [key for key, fn in originals.items() if _resolve(*key) is not fn]
    finally:
        spans.uninstall()
    assert wrapped == list(originals)
    assert all(_resolve(*key) is fn for key, fn in originals.items())
