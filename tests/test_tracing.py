"""The contract between ``perfbench/tracing.py`` and ``src/``: every name the
tracer patches exists, a traced request still passes through the patched
layers, and ``restore`` puts every original object back."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from blockenc import cli, encoding, qram, resources, simulator

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

OWNERS = (cli, encoding, resources, simulator, qram.SelectSwapLoad,
          qram.BucketBrigadeLoad, qram.FlagLoad)


def _attributes():
    return {(owner, name): value for owner in OWNERS
            for name, value in vars(owner).items()}


@pytest.fixture
def original():
    """The attributes before the test; put back even if ``install`` fails
    half-way."""
    before = _attributes()
    yield before
    for (owner, name), value in before.items():
        if vars(owner).get(name) is not value:
            setattr(owner, name, value)


def test_restore_puts_back_every_patched_object(original):
    restore = tracing.install(tracing.Tracer())
    patched = {key: value for key, value in _attributes().items()
               if original.get(key) is not value}
    restore()
    assert patched
    assert all(wrapper.__wrapped__ is original[key]
               for key, wrapper in patched.items())
    after = _attributes()
    assert after.keys() == original.keys()
    assert all(after[key] is value for key, value in original.items())


def test_traced_requests_pass_through_every_layer(original, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        for extra in ((), ("--method", "prerotated"),
                      ("--variant", "controlled"), ("--variant", "symmetric")):
            assert cli.main(["build", "--matrix", str(path), "--t", "3",
                             "--format", "json", *extra]) == 0
        assert cli.main(["sweep", "--n-max", "1", "--format", "json"]) == 0
    finally:
        restore()
    names = {span[3] for span in tracer.spans}
    assert names >= {"encoding.build_block_encoding", "angle_tree.matrix_trees",
                     "stateprep.build", "qram.build", "circuit.count_resources",
                     "resources.cross_validate",
                     "resources.sweep_cross_validation"}
    assert tracer.counts["encoding.ops"] > 0
