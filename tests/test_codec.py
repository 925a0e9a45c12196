"""Frozen-tree JSON codec: the digest-preserving wire format.

The codec's one job is faithfulness: a spec that crosses the HTTP
boundary must come back with the same content digest, or the serve
front-end would re-simulate work the store already holds.
"""

import json

import pytest

from repro.campaign.job import freeze, make_job, thaw
from repro.scenario.codec import (
    CodecError,
    decode_tree,
    encode_tree,
    spec_from_json,
    spec_to_json,
)
from repro.scenario.registry import FAMILIES, build_spec
from repro.scenario.spec import ScenarioSpec, StationSpec


def round_trip(tree):
    return decode_tree(json.loads(json.dumps(encode_tree(tree))))


# ----------------------------------------------------------------------
# tree faithfulness
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        0,
        -7,
        3.5,
        1.0,  # float stays float (digest depends on it)
        "text",
        b"\x00\xffraw",
        [1, 2, [3, 4]],
        {"b": 1, "a": {"nested": [1.5, None]}},
        {1, 2, 3},
        ("mixed", b"bytes", 2.5),
        ScenarioSpec(
            name="station-words",
            stations=(
                StationSpec("n1", uplink_loss=0.08, burst_base_rate_mbps=1.0),
            ),
        ),
    ],
)
def test_round_trip_equals_frozen_form(value):
    tree = freeze(value)
    assert round_trip(tree) == tree


def test_int_float_distinction_survives():
    # 1 == 1.0 in Python, so compare reprs — the digest hashes repr().
    assert repr(round_trip(freeze({"x": 1}))) == repr(freeze({"x": 1}))
    assert repr(round_trip(freeze({"x": 1.0}))) == repr(freeze({"x": 1.0}))
    assert repr(round_trip(freeze({"x": 1}))) != repr(
        round_trip(freeze({"x": 1.0}))
    )


def test_job_digest_survives_round_trip():
    job = make_job(
        "exp", "key", "repro.campaign.faults:echo",
        {"value": 3, "nested": {"a": [1, 2]}, "flag": True},
    )
    tree = round_trip(job.params)
    clone = make_job("exp", "key", job.executor, {})
    # Rebuild through the Job constructor with the decoded params.
    from repro.campaign.job import Job

    rebuilt = Job(
        experiment="exp", key="key", executor=job.executor, params=tree
    )
    assert rebuilt.digest == job.digest


# ----------------------------------------------------------------------
# ScenarioSpec wrappers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_round_trips_with_equal_digest(family):
    spec = build_spec(family)
    wire = json.dumps(spec_to_json(spec))
    clone = spec_from_json(json.loads(wire))
    assert clone == spec
    assert clone.digest == spec.digest
    # And the campaign-job digest (the store address) matches too.
    from repro.scenario.runner import scenario_job

    assert (
        scenario_job(clone, key=clone.name).digest
        == scenario_job(spec, key=spec.name).digest
    )


def test_hand_reordered_json_still_canonicalizes():
    """A client need not reproduce freeze()'s canonical ordering —
    thawing through the real dataclasses re-canonicalizes."""
    spec = build_spec("churn", seconds=1.0)
    encoded = spec_to_json(spec)
    (tag, body), = encoded.items()
    assert tag == "@dataclass"
    cls_path, fields = body
    reordered = {tag: [cls_path, list(reversed(fields))]}
    clone = spec_from_json(reordered)
    assert clone.digest == spec.digest


# ----------------------------------------------------------------------
# refusal paths
# ----------------------------------------------------------------------
def test_decode_refuses_untrusted_dataclass_path():
    with pytest.raises(CodecError, match="refusing dataclass path"):
        decode_tree({"@dataclass": ["os.path:join", []]})


def test_thaw_refuses_in_package_non_dataclass():
    # A forged node can pass the 'repro.' prefix gate while naming a
    # plain function or class; thaw must refuse to call it rather than
    # invoke it with attacker-chosen kwargs.
    with pytest.raises(ValueError, match="not a dataclass"):
        thaw(("@dataclass", "repro.campaign.job:freeze", (("value", 1),)))
    with pytest.raises(ValueError, match="not a dataclass"):
        thaw(("@dataclass", "repro.scenario.codec:CodecError", ()))


def test_spec_from_json_refuses_in_package_non_dataclass():
    hostile = {"@dataclass": ["repro.campaign.job:freeze", [["value", 1]]]}
    with pytest.raises(CodecError, match="not a dataclass"):
        spec_from_json(hostile)
    # Nested nodes are instantiated before the outer ScenarioSpec type
    # check, so the gate must hold there too.
    spec = build_spec("churn")
    encoded = spec_to_json(spec)
    (tag, body), = encoded.items()
    cls_path, fields = body
    nested = [[fields[0][0], hostile]] + [list(f) for f in fields[1:]]
    with pytest.raises(CodecError, match="not a dataclass"):
        spec_from_json({tag: [cls_path, nested]})


def test_decode_rejects_malformed_nodes():
    with pytest.raises(CodecError):
        decode_tree({"@tuple": [1], "@set": [2]})  # two keys
    with pytest.raises(CodecError):
        decode_tree({"@nonsense": []})
    with pytest.raises(CodecError):
        decode_tree({"@bytes": "not-base64!!"})
    with pytest.raises(CodecError):
        decode_tree(object())


def test_encode_rejects_non_frozen_values():
    with pytest.raises(CodecError):
        encode_tree({"raw": "dict"})  # freeze() it first
    with pytest.raises(CodecError):
        encode_tree(("@unknown-tag", ()))


def test_spec_from_json_rejects_non_spec():
    with pytest.raises(CodecError, match="not a.*ScenarioSpec"):
        spec_from_json(encode_tree(freeze({"just": "a dict"})))


def test_spec_from_json_validates():
    spec = build_spec("churn")
    encoded = spec_to_json(spec)
    text = json.dumps(encoded).replace('["seconds", 10.0]', '["seconds", -1.0]')
    assert text != json.dumps(encoded)  # the knob was found and flipped
    with pytest.raises(CodecError):
        spec_from_json(json.loads(text))
