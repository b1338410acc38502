"""The benchmark tracer (``bench/spans.py``) must find every name it patches.

The tracer looks each target up as ``obj.__dict__[attr]``, so a renamed or
deleted function breaks ``bench/run.py --trace 1`` with a KeyError. Names
such as ``analysis.knn``, ``analysis.direction_bundle``, ``angle_id.knn``
and ``angle_id.direction_bundle`` are kept only for it, so nothing else
would notice their removal.
"""

import importlib.util
from pathlib import Path

from angleid import angle_id, synth

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = _load_spans().TARGETS
    assert targets
    missing = [f"{getattr(obj, '__name__', obj)}.{attr}"
               for obj, attr, *_ in targets if attr not in vars(obj)]
    assert not missing, missing


def test_tracer_patches_and_restores_every_target():
    spans = _load_spans()
    originals = [(obj, attr, vars(obj)[attr]) for obj, attr, *_ in spans.TARGETS]
    with spans.Tracer() as tracer:
        angle_id.estimate_table(synth.sample_ball(60, 2, seed=1), 5, ("abid",), queries=[0, 1])
    assert all(vars(obj)[attr] is fn for obj, attr, fn in originals)
    assert "angle_id.estimate_table" in {s.name for s in tracer.spans}
