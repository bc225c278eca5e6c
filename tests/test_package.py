"""The package's lazy exports, what each entry point loads, and the result records."""

import copy
import dataclasses
import hashlib
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
    GateDefinition,
    GateInstance,
    LiteratureRow,
    LogicCost,
    MetricsReport,
    ParseDiagnostic,
    TraceResult,
    Violation,
    build_bcd_adder,
    build_ripple_adder,
    builtin,
    run,
    serialize_netlist,
    validate,
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


# argparse and the two modules it loads for its messages, which the CLI's own argv reader replaces
ARGPARSE = ("argparse", "gettext", "locale")


def test_validate_loads_only_the_text_layers(tmp_path):
    path = tmp_path / "c.net"
    path.write_text("circuit c\ninputs a b\ngate FG a b -> p q\noutputs p q\nend\n")
    proc = python("-X", "importtime", "-m", "revlogic.cli", "validate", str(path))
    assert proc.returncode == 0 and proc.stdout == "ok\n"
    modules = imported(proc.stderr)
    assert {m for m in modules if m.startswith("revlogic")} == {"revlogic", "revlogic.gates", "revlogic.netlist", "revlogic.textio"}
    assert not modules & {"json", "dataclasses", "inspect", *ARGPARSE}


def test_metrics_json_loads_what_it_runs(tmp_path):
    path = tmp_path / "c.net"
    path.write_text("circuit c\ninputs a b\ngate FG a b -> p q\noutputs p q\nend\n")
    proc = python("-X", "importtime", "-m", "revlogic.cli", "metrics", str(path), "--json")
    assert proc.returncode == 0 and '"quantum_cost": 1' in proc.stdout
    modules = imported(proc.stderr)
    assert {"revlogic.metrics", "json"} <= modules
    assert not modules & {"revlogic.simulate", "revlogic.builders", "dataclasses", "inspect", *ARGPARSE}


# the other command kinds of the benchmark's cli session, on the 4-bit ripple adder
SESSION = {
    "build": lambda path, width: ["build", "ripple4", "-o", path],
    "compare": lambda path, width: ["compare", path, "--with-literature", "--json"],
    "check-adder": lambda path, width: ["check-adder", path, "--kind", "ripple4"],
    "sim": lambda path, width: ["sim", path, "--exhaustive"],
    "inverse": lambda path, width: ["inverse", path, "--out", "0" * width],
}


@pytest.mark.parametrize("argv", SESSION.values(), ids=SESSION)
def test_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    ripple = build_ripple_adder()
    path = tmp_path / "ripple4.net"
    path.write_text(serialize_netlist(ripple))
    width = len(ripple.primary_inputs) + len(ripple.constants)
    proc = python("-X", "importtime", "-m", "revlogic.cli", *argv(str(path), width))
    assert proc.returncode == 0, proc.stderr
    assert not imported(proc.stderr) & {"dataclasses", "inspect", *ARGPARSE}


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


def use_caches(obj):
    """Fill every cache the object has."""
    if isinstance(obj, GateDefinition):
        obj.anf, obj.inverse_table, obj.inverse_anf  # noqa: B018
    elif not isinstance(obj, LogicCost):
        validate(obj)
        run(obj, dict.fromkeys(obj.primary_inputs, 0))


# (factory, field names, repr text or the SHA-256 of a long one, caches that pickles leave out)
IMMUTABLES = {
    "LogicCost": (lambda: LogicCost(5, 2, 0), ("xors", "ands", "nots"), "LogicCost(xors=5, ands=2, nots=0)", ()),
    "builtin": (
        lambda: builtin("PFAG"),
        ("name", "arity", "table", "quantum_cost", "logic_cost"),
        "GateDefinition(name='PFAG', arity=4, table=(0, 1, 2, 3, 6, 7, 5, 4, 14, 15, 13, 12, 9, 8, 11, 10), "
        "quantum_cost=8, logic_cost=LogicCost(xors=5, ands=2, nots=0))",
        (),
    ),
    "from_table": (
        lambda: GateDefinition.from_table("SWAP", [[0, 0], [1, 0], [0, 1], [1, 1]], 3),
        ("name", "arity", "table", "quantum_cost", "logic_cost"),
        "GateDefinition(name='SWAP', arity=2, table=(0, 2, 1, 3), quantum_cost=3, logic_cost=LogicCost(xors=0, ands=0, nots=0))",
        (),
    ),
    "Netlist": (
        lambda: build_bcd_adder("bcd2"),
        ("name", "primary_inputs", "constants", "gates", "primary_outputs"),
        "sha256:a6a5f6d179997774de965fd0f77af6f871a3bb7c1a1eb3cb7a64614e98263283",
        ("_checked", "_plan"),
    ),
}


@pytest.mark.parametrize("factory, names, expected_repr, caches", IMMUTABLES.values(), ids=IMMUTABLES)
def test_immutable_classes_keep_their_dataclass_behaviour(factory, names, expected_repr, caches):
    obj = factory()
    cls = type(obj)
    values = tuple(getattr(obj, name) for name in names)
    assert cls(*values) == obj == cls(**dict(zip(names, values)))
    assert not obj != cls(*values)
    assert obj != values and obj.__eq__(values) is NotImplemented
    assert obj != LogicCost(9) and obj.__eq__(object()) is NotImplemented
    assert hash(obj) == hash(values)
    text = repr(obj)
    assert expected_repr in (text, "sha256:" + hashlib.sha256(text.encode()).hexdigest())

    use_caches(obj)
    assert repr(obj) == text and hash(obj) == hash(values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(obj, protocol))
        assert type(loaded) is cls and loaded == obj and repr(loaded) == text
        assert not set(caches) & set(vars(loaded))
    for twin in (copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls and twin == obj

    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values

    assert dataclasses.is_dataclass(obj)
    assert tuple(f.name for f in dataclasses.fields(obj)) == names
    assert dataclasses.replace(obj) == obj
    other = values[0] + 1 if cls is LogicCost else "other"
    changed = dataclasses.replace(obj, **{names[0]: other})
    assert type(changed) is cls and changed != obj
    assert tuple(getattr(changed, name) for name in names) == (other, *values[1:])
    assert list(dataclasses.asdict(obj)) == list(names)


# a frozen dataclass pickled a gate's anf and inverse_table once they were built; now no cache is pickled
@pytest.mark.parametrize("factory, names, expected_repr, caches", IMMUTABLES.values(), ids=IMMUTABLES)
def test_pickles_hold_the_fields_alone(factory, names, expected_repr, caches):
    obj = factory()
    use_caches(obj)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert list(vars(pickle.loads(pickle.dumps(obj, protocol)))) == list(names)


def test_copy_replace_protocol():
    # copy.replace (Python 3.13 on) calls __replace__, which a frozen dataclass defines there
    assert LogicCost(5, 2, 0).__replace__(nots=1) == LogicCost(5, 2, 1)
    net = build_bcd_adder("bcd2")
    assert net.__replace__(name="other") == dataclasses.replace(net, name="other")


def test_immutable_class_defaults():
    assert LogicCost() == LogicCost(0, 0, 0) == LogicCost(xors=0, ands=0, nots=0)
    gate = GateDefinition("ID", 1, [0, 1])
    assert gate.table == (0, 1) and gate.quantum_cost is None and gate.logic_cost == LogicCost()
    assert gate == GateDefinition(name="ID", arity=1, table=(0, 1), quantum_cost=None, logic_cost=LogicCost())
    assert dataclasses.asdict(LogicCost(5, 2, 0)) == {"xors": 5, "ands": 2, "nots": 0}
    assert dataclasses.asdict(gate)["logic_cost"] == {"xors": 0, "ands": 0, "nots": 0}
