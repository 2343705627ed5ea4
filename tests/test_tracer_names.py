"""The benchmark's per-layer tracer wraps library names from outside the
package; a deletion in src/ that removes one of them breaks `--trace 1`."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for (layer, cls_name), names in tracer.METHODS.items():
        cls = getattr(importlib.import_module("hallforge." + layer), cls_name)
        for name in names:
            assert name in cls.__dict__, (layer, cls_name, name)
    # the aliases the benchmark self-test checks after uninstalling
    from hallforge import cohm, finite_type

    assert callable(finite_type.schur) and callable(cohm.shuffle_mul)
