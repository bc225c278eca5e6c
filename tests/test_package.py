"""The package's lazy exports, what each entry point loads, and the result records."""

import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import revlogic
from revlogic import (
    Comparison,
    ComputedRow,
    Counterexample,
    GateInstance,
    LiteratureRow,
    LogicCost,
    MetricsReport,
    ParseDiagnostic,
    TraceResult,
    Violation,
    builtin,
)

FG = builtin("FG")


def python(*args):
    """Run a fresh interpreter on these sources; returns the completed process."""
    src = str(Path(revlogic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_every_export_is_its_home_modules_object():
    for name in revlogic.__all__:
        home = importlib.import_module(f"revlogic.{revlogic._HOME[name]}")
        value = getattr(revlogic, name)
        assert value is getattr(home, name), name
        # classes, functions and instances name the module that defines them
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from revlogic import *", namespace)
    for name in revlogic.__all__:
        assert namespace[name] is getattr(revlogic, name)
    assert set(revlogic.__all__) <= set(dir(revlogic))
    assert {"simulate", "cli", "__version__"} <= set(dir(revlogic))


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'revlogic' has no attribute 'no_such_name'"):
        revlogic.no_such_name  # noqa: B018


def test_bare_import_loads_no_submodule():
    code = (
        "import sys, revlogic\n"
        "print(sorted(m for m in sys.modules if m.startswith('revlogic.')))\n"
        "print(revlogic.simulate.__name__, revlogic.simulate.run is revlogic.run)\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nrevlogic.simulate True\n"


def imported(stderr):
    """Module names in a ``-X importtime`` log."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")}


def test_validate_loads_only_the_text_layers(tmp_path):
    path = tmp_path / "c.net"
    path.write_text("circuit c\ninputs a b\ngate FG a b -> p q\noutputs p q\nend\n")
    proc = python("-X", "importtime", "-m", "revlogic.cli", "validate", str(path))
    assert proc.returncode == 0 and proc.stdout == "ok\n"
    modules = imported(proc.stderr)
    assert {m for m in modules if m.startswith("revlogic")} == {"revlogic", "revlogic.gates", "revlogic.netlist", "revlogic.textio"}
    assert "json" not in modules


def test_metrics_json_loads_what_it_runs(tmp_path):
    path = tmp_path / "c.net"
    path.write_text("circuit c\ninputs a b\ngate FG a b -> p q\noutputs p q\nend\n")
    proc = python("-X", "importtime", "-m", "revlogic.cli", "metrics", str(path), "--json")
    assert proc.returncode == 0 and '"quantum_cost": 1' in proc.stdout
    modules = imported(proc.stderr)
    assert {"revlogic.metrics", "json"} <= modules
    assert not modules & {"revlogic.simulate", "revlogic.builders"}


REPORT = MetricsReport(gate_count=1, gates={"FG": 1}, quantum_cost=1, garbage=0, constants=0, logical=LogicCost(1))
LITERATURE = LiteratureRow(label="x", gate_count_expr="1 FG=1", garbage=2, logical=LogicCost(), quantum_cost=None)
RECORDS = [
    (Violation, {"rule": "fan-out", "message": "m", "wire": "a", "gate_index": 1, "severity": "error", "position": 2}),
    (ParseDiagnostic, {"line": 3, "token": 1, "rule": "syntax", "message": "m"}),
    (Counterexample, {"inputs": (0, 1), "expected": (1,), "actual": (0,)}),
    (TraceResult, {"primary_out": {"p": 1}, "garbage_out": {"q": 0}, "all_lines": {"a": 1, "p": 1, "q": 0}}),
    (MetricsReport, REPORT._asdict()),
    (LiteratureRow, LITERATURE._asdict()),
    (ComputedRow, {"label": "bcd2", "report": REPORT, "claimed_garbage": 24}),
    (Comparison, {"computed": (), "literature": (LITERATURE,)}),
    (GateInstance, {"gate": FG, "inputs": ("a", "b"), "outputs": ("p", "q")}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_keep_their_dataclass_behaviour(cls, fields):
    record = cls(**fields)
    assert cls._fields == tuple(fields)
    assert record == cls(*fields.values())
    assert record != record._replace(**{cls._fields[0]: "other"})
    assert repr(record) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded == record and type(loaded) is cls
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    # a frozen dataclass hashed the tuple of its fields, as a named tuple does
    try:
        expected = hash(tuple(fields.values()))
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_record_defaults():
    assert Violation._field_defaults == {"wire": None, "gate_index": None, "severity": "error", "position": None}
    assert Violation("r", "m") == Violation(rule="r", message="m", wire=None, gate_index=None, severity="error", position=None)
    for cls, _fields in RECORDS:
        if cls is not Violation:
            assert cls._field_defaults == {}
