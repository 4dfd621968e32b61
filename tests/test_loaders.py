"""Property test of the four loaders: a valid document with one field
replaced by an arbitrary JSON value either loads or raises one of the
errors the CLI reports as malformed input (exit 2), never anything else.
Each loader also refuses a field it does not know, a missing field and a
document that is no JSON object, and serde.read_object a file that holds no
JSON object."""

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hexreg
from hexreg import design, model, sim
from hexreg.cli import _USAGE_ERRORS
from hexreg.serde import dumps_json, read_object

json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

loader_settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)


def _as_json(data) -> dict:
    return json.loads(dumps_json(data))


def _load_or_usage_error(load, doc) -> None:
    try:
        load(doc)
    except _USAGE_ERRORS:
        pass


@pytest.fixture(scope="module")
def documents(table1, synthetic_observable, synthetic_observer):
    """One valid document per loader, as parsed JSON."""
    sys_ = synthetic_observable
    eq = hexreg.equilibrium_at(sys_, 0.05)
    art = replace(hexreg.forwarding_design(sys_, eq, k_p=0.5, k_i=0.2),
                  observer=synthetic_observer)
    scenario = {
        "units": "K", "law": "output_feedback", "t_end": 1.0, "dt": 0.1,
        "reference_schedule": [[0.0, eq.y_ss]],
        "output_disturbance": [[0.5, 0.1]],
        "x0": eq.x_ss.tolist(), "x_hat0": eq.x_ss.tolist(),
    }
    return {
        "params": table1.to_dict(),
        # a hex_params block must rebuild the file's plant
        "system": _as_json(model.system_to_dict(hexreg.build_hex(table1), table1)),
        "artifacts": _as_json(design.artifacts_to_dict(art)),
        "scenario": scenario,
        "scenario_args": (sys_, art),
    }


def test_valid_documents_load(documents):
    hexreg.HexParams.from_dict(documents["params"])
    model.system_from_dict(documents["system"])
    design.artifacts_from_dict(documents["artifacts"])
    sim.scenario_from_dict(documents["scenario"], *documents["scenario_args"])


@loader_settings
@given(key=st.sampled_from(model._HEX_FIELDS), value=json_values)
def test_hex_params_loader(documents, key, value):
    doc = dict(documents["params"], **{key: value})
    _load_or_usage_error(hexreg.HexParams.from_dict, doc)


@loader_settings
@given(key=st.sampled_from(["n_states", "A", "B", "b", "E", "C", "D", "u_min",
                            "u_max", "hex_params", "hex_params.lambda",
                            "hex_params.n_cells", "hex_params.u_max"]),
       value=json_values)
def test_system_loader(documents, key, value):
    doc = json.loads(json.dumps(documents["system"]))
    outer, _, inner = key.rpartition(".")
    (doc[outer] if outer else doc)[inner] = value
    _load_or_usage_error(model.system_from_dict, doc)


@loader_settings
@given(key=st.sampled_from(["u_ss", "x_ss", "P", "Upsilon", "M", "k_p", "k_i",
                            "sign_dc", "ki_star", "observer", "observer.L",
                            "observer.Q", "observer.nu", "observer.mu"]),
       value=json_values)
def test_artifacts_loader(documents, key, value):
    doc = json.loads(json.dumps(documents["artifacts"]))
    outer, _, inner = key.rpartition(".")
    (doc[outer] if outer else doc)[inner] = value
    _load_or_usage_error(design.artifacts_from_dict, doc)


@loader_settings
@given(key=st.sampled_from(sorted({*sim._SCENARIO_REQUIRED, *sim._SCENARIO_OPTIONAL})),
       value=json_values)
def test_scenario_loader(documents, key, value):
    doc = dict(documents["scenario"], **{key: value})
    _load_or_usage_error(
        lambda d: sim.scenario_from_dict(d, *documents["scenario_args"]), doc)


_DROP = object()  # stands for deleting the field instead of setting it


def _refusal(documents, key, value) -> str:
    """The message of the ValueError its loader raises on the document
    named by the first part of key, with the field at the rest of key set
    to value (or deleted, for _DROP); a key of one part replaces the whole
    document."""
    name, *path = key.split(".")
    doc = json.loads(json.dumps(documents[name]))
    if path:
        target = doc
        for part in path[:-1]:
            target = target[part]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    else:
        doc = value
    load = {
        "params": hexreg.HexParams.from_dict,
        "system": model.system_from_dict,
        "artifacts": design.artifacts_from_dict,
        "scenario": lambda d: sim.scenario_from_dict(d, *documents["scenario_args"]),
    }[name]
    with pytest.raises(ValueError) as info:
        load(doc)
    return str(info.value)


@pytest.mark.parametrize("key, message", [
    ("params.extra", "unknown HexParams fields: ['extra']"),
    ("system.extra", "unknown system fields: ['extra']"),
    ("artifacts.extra", "unknown artifact fields: ['extra']"),
    ("artifacts.observer.extra", "unknown observer fields: ['extra']"),
    ("scenario.extra", "unknown scenario fields: ['extra']"),
])
def test_loaders_reject_unknown_fields(documents, key, message):
    """Every loader refuses a field it does not know, at any level."""
    assert _refusal(documents, key, 1.0) == message


@pytest.mark.parametrize("key, value, message", [
    ("params.u_max", _DROP, "missing HexParams fields: ['u_max']"),
    ("params", [1.0], "HexParams must be a JSON object, got [1.0]"),
    ("system.hex_params", [1.0], "HexParams must be a JSON object, got [1.0]"),
    ("system.D", _DROP, "missing system fields: ['D']"),
    ("system", [1.0], "system must be a JSON object, got [1.0]"),
    ("artifacts.sign_dc", _DROP, "missing artifact fields: ['sign_dc']"),
    ("artifacts", "P", "artifact must be a JSON object, got 'P'"),
    ("artifacts.observer.Q", _DROP, "missing observer fields: ['Q']"),
    ("artifacts.observer", 2.0, "observer must be a JSON object, got 2.0"),
    ("scenario.dt", _DROP, "missing scenario fields: ['dt']"),
    ("scenario", None, "scenario must be a JSON object, got None"),
])
def test_loaders_reject_missing_fields_and_non_objects(documents, key, value, message):
    """Every loader, at every level, refuses a document without one of its
    required fields and a value other than a JSON object where a document
    belongs, through the one check serde.require_fields."""
    assert _refusal(documents, key, value) == message


@pytest.mark.parametrize("text", ["[1, 2]", "3.5", "null"])
def test_read_object_refuses_other_json_values(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="expected a JSON object"):
        read_object(path)
