"""Every function the benchmark's tracer wraps by name still exists.

``perfbench/tracer.py`` finds the functions it times (``SPANS``) and
counts (``COUNTS``) by module, name and, for a method, class.  Deleting
or renaming one of them would fail only a traced benchmark run; this
test reads the tracer's lists, without installing it, and fails first.
"""

import importlib.util
from pathlib import Path


def _tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _tracer()
    names = tracer.SPANS + tracer.COUNTS
    assert names
    for module, attr, owner in names:
        mod = importlib.import_module("topstruct." + module)
        if owner is None:
            assert callable(getattr(mod, attr, None)), (module, attr)
        else:
            cls = getattr(mod, owner, None)
            # the tracer wraps the method found in the class body itself
            assert cls is not None and callable(vars(cls).get(attr)), (
                module, owner, attr,
            )
