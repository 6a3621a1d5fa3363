"""The benchmark tracer (perfbench/spans.py) still fits the package: every
name it wraps exists, and a CLI op runs through it with its spans recorded."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from nlsthermo.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"nlsthermo.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"nlsthermo.{module_name}.{name}"


def test_traced_verify_runs_and_records_certification(spans, tmp_path):
    out = tmp_path / "report.json"
    with spans.Tracer() as tracer:
        code = tracer.run_op(0, main, ["verify", "--random", "3", "--steps", "21",
                                       "--out", str(out)])
    assert code == 0
    layers = tracer.layers()
    assert layers["core.certify_gibbs_matrix.calls"] == 1
    assert layers["core.GibbsMatrix.calls"] >= 1
    assert layers["core.GibbsMatrix.failed"] == 0
