"""The dataclass codec behind every stored format: round trips and errors."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzipuf._codec import decode, encode, int_tuple
from mzipuf.experiments import ExperimentConfig, _config_payload, config_from_dict
from mzipuf.fabrication import (
    ChipFingerprint,
    ChipLayoutSpec,
    HeaterParams,
    NoiseConfig,
    load_chip,
    save_chip,
)
from mzipuf.mesh import CouplerPair
from mzipuf.metrics import DistanceStats
from mzipuf.protocol import CrpRecord, VerifyPolicy

floats = st.floats(allow_nan=False)
counts = st.integers(0, 2**40)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

distance_stats = st.builds(
    DistanceStats, counts, floats, floats, floats, floats, floats,
    st.lists(st.tuples(floats, floats, counts), max_size=4).map(tuple),
)
verify_policies = st.builds(VerifyPolicy, st.integers(1, 2**40), counts,
                            st.floats(allow_nan=False, allow_infinity=False),
                            st.booleans(), st.booleans())
noise_configs = st.builds(
    NoiseConfig, st.booleans(), *[st.floats(0.0, 1e3)] * 4, st.integers(1, 10**6)
)


@st.composite
def experiment_configs(draw):
    headline = draw(st.integers(1, 20))
    chip_seeds = tuple(draw(st.lists(counts, min_size=1, max_size=2)))
    return ExperimentConfig(
        preset=draw(st.sampled_from(("small-pair", "large-pair"))),
        chip_seeds=chip_seeds,
        challenge_count=draw(st.integers(1, 10**6)),
        repeat_count=draw(st.integers(2, 10**6)),
        seed=draw(counts),
        noise=draw(noise_configs),
        bin_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        looseness_max=headline + draw(st.integers(0, 5)),
        headline_looseness=headline,
        # a clone run takes one chip seed
        clone_devices=len(chip_seeds) == 1 and draw(st.booleans()),
    )


@st.composite
def chips(draw):
    n = draw(st.integers(1, 5))
    site = st.integers(0, n - 1)
    pairs = st.tuples(site, site).filter(lambda pair: pair[0] != pair[1])
    adjacency = draw(st.none() | st.lists(pairs, max_size=4).map(tuple)) if n > 1 else None
    finite = st.floats(0.0, allow_infinity=False)
    v2pi, heater, coupler, loop = draw(st.tuples(finite.filter(bool), finite, finite, finite))
    spec = ChipLayoutSpec(n, adjacency, v2pi, heater, coupler, draw(finite), loop)
    heaters = draw(st.lists(st.builds(HeaterParams, floats, floats, floats),
                            min_size=n, max_size=n))
    couplers = draw(st.lists(st.builds(CouplerPair, open_unit, open_unit),
                             min_size=n, max_size=n))
    loops = tuple((a, b, draw(floats)) for a, b in spec.adjacency)
    return ChipFingerprint(draw(counts), spec, tuple(heaters), tuple(couplers), loops)


def json_round_trip(obj):
    return decode(type(obj), json.loads(json.dumps(encode(obj))))


@settings(max_examples=50, deadline=None)
@given(stats=distance_stats)
def test_distance_stats_round_trip(stats):
    assert json_round_trip(stats) == stats


@settings(max_examples=50, deadline=None)
@given(policy=verify_policies)
def test_verify_policy_round_trip(policy):
    assert json_round_trip(policy) == policy


@settings(max_examples=50, deadline=None)
@given(config=experiment_configs())
def test_experiment_config_round_trip(config):
    assert json_round_trip(config) == config
    assert config_from_dict(json.loads(json.dumps(_config_payload(config)))) == config


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chip=chips())
def test_chip_file_round_trip(tmp_path, chip):
    path = tmp_path / "chip.json"
    save_chip(chip, path)
    loaded = load_chip(path)
    assert loaded == chip
    assert loaded.digest() == chip.digest()


def test_encode_goes_one_level_per_dataclass_and_keeps_tuples():
    payload = encode(ExperimentConfig())
    assert payload["noise"] == encode(NoiseConfig())
    assert payload["chip_seeds"] == (1234,)
    stats = DistanceStats(1, 2.0, 2.0, 0.0, 2.0, 2.0, ((2.0, 3.0, 1),))
    assert encode(stats)["histogram"] is stats.histogram


def test_decode_casts_fields_by_annotation():
    policy = decode(VerifyPolicy, {"looseness": "3", "lhd_threshold": 1.0,
                                   "l2_threshold": 2, "clamped": True,
                                   "low_confidence": False, "unknown": None})
    assert policy == VerifyPolicy(3, 1, 2.0, True, False)
    assert isinstance(policy.lhd_threshold, int) and isinstance(policy.l2_threshold, float)


@pytest.mark.parametrize("values", [
    [3, -1, 2**70], (True, 0), np.arange(4), [np.int64(5), 6], [1.0, "7", -2.0], range(3),
])
def test_int_tuple_is_tuple_of_int(values):
    cast = int_tuple(iter(values) if isinstance(values, range) else values)
    assert cast == tuple(map(int, values))
    assert all(type(item) is int for item in cast)
    with pytest.raises(TypeError):
        int_tuple([1, None])
    # a float that is not integral is refused, not truncated
    for bad in (1.9, -2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {bad!r}")):
            int_tuple([1, bad])


@pytest.mark.parametrize("cls, payload, message", [
    (VerifyPolicy, [], "VerifyPolicy: expected an object, got list"),
    (VerifyPolicy, {"looseness": 2}, "VerifyPolicy.lhd_threshold is missing"),
    (NoiseConfig, {**encode(NoiseConfig()), "samples_per_response": None},
     "NoiseConfig.samples_per_response: int()"),
    (NoiseConfig, {**encode(NoiseConfig()), "enabled": 1},
     "NoiseConfig.enabled: expected bool, got int"),
    (ExperimentConfig, {**encode(ExperimentConfig()), "preset": 5},
     "ExperimentConfig.preset: expected str, got int"),
    (ExperimentConfig, {**encode(ExperimentConfig()), "chip_seeds": "12"},
     "ExperimentConfig.chip_seeds: expected a list, got str"),
    (DistanceStats, {**encode(DistanceStats(1, 0.0, 0.0, 0.0, 0.0, 0.0)),
                     "histogram": [[0.0, 1.0]]},
     "DistanceStats.histogram: zip() argument 2 is shorter than argument 1"),
    (CrpRecord, {"challenge_id": 0, "challenge": {"levels": [1], "bits": 10},
                 "reference": {}, "repeat_stats": None, "consumed": False},
     "CrpRecord.challenge: Challenge.v2pi_nominal is missing"),
    (VerifyPolicy, {**encode(VerifyPolicy()), "looseness": 1.9},
     "VerifyPolicy.looseness: expected an integer, got 1.9"),
    (ExperimentConfig, {**encode(ExperimentConfig()), "chip_seeds": [float("nan")]},
     "ExperimentConfig.chip_seeds: expected an integer, got nan"),
])
def test_decode_names_the_bad_field(cls, payload, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        decode(cls, payload)
