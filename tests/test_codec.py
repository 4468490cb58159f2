"""The dataclass codec behind every stored format: round trips and errors."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mzipuf._codec import decode, encode, int_tuple
from mzipuf.combinatorics import (
    catalan,
    chip_crp_total,
    distinguishable_crp_count,
    naive_challenge_bound,
    to_scientific,
    tree_counts_by_height,
)
from mzipuf.experiments import (
    ExperimentConfig,
    _config_payload,
    config_from_dict,
    small_pair_config,
)
from mzipuf.fabrication import (
    Challenge,
    ChipFingerprint,
    ChipLayoutSpec,
    HeaterParams,
    NoiseConfig,
    NoiseStream,
    carve_device,
    fabricate_chip,
    load_chip,
    save_chip,
)
from mzipuf.mesh import CouplerPair, build_mesh
from mzipuf.metrics import (
    DistanceStats,
    QuantizedResponse,
    loose_hamming_distance,
    looseness_sweep,
    uniqueness,
)
from mzipuf.protocol import CrpRecord, VerifyPolicy, calibrate_policy, enroll, verify

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
    [3, -1, 2**70], (np.uint8(7), 0), np.arange(4), [np.int64(5), 6], [1.0, "7", -2.0], range(3),
])
def test_int_tuple_is_tuple_of_int(values):
    cast = int_tuple(iter(values) if isinstance(values, range) else values)
    assert cast == tuple(map(int, values))
    assert all(type(item) is int for item in cast)
    with pytest.raises(TypeError):
        int_tuple([1, None])
    # a float that is not integral is refused, not truncated, and a bool is no integer
    for bad in (1.9, -2.5, np.nan, np.inf, True, False, np.True_):
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


DEVICE = carve_device(fabricate_chip(1, ChipLayoutSpec(mzi_count=10)), 4, tuple(range(10)))
QUIET = NoiseConfig.disabled()
DB = enroll(DEVICE, 2, 1, rng_seed=1, noise_config=QUIET)
REFERENCE = DB.records[0].reference
TABLE = tree_counts_by_height(4, 10)
A, B = QuantizedResponse((1, 5, 0)), QuantizedResponse((2, 1, 0))

# every scalar integer a caller passes: (its name, a call taking it, a value it accepts)
SCALARS = [
    ("n", lambda x: catalan(x), 3),
    ("mzi_count", lambda x: naive_challenge_bound(x, 2), 3),
    ("bits_per_mzi", lambda x: naive_challenge_bound(3, x), 2),
    ("max_height", lambda x: tree_counts_by_height(x, 5).max_height, 3),
    ("max_nodes", lambda x: tree_counts_by_height(3, x).max_nodes, 5),
    ("height", lambda x: TABLE.count(x, 3), 2),
    ("nodes", lambda x: TABLE.count(2, x), 3),
    ("columns", lambda x: distinguishable_crp_count(x, 10), 4),
    ("mzi_count", lambda x: distinguishable_crp_count(4, x), 10),
    ("bits_per_mzi", lambda x: distinguishable_crp_count(4, 10, x), 3),
    ("subset_count", lambda x: chip_crp_total(x, 4, 10), 2),
    ("value", lambda x: to_scientific(x), 12345),
    ("sig_figs", lambda x: to_scientific(12345, x), 2),
    ("columns", lambda x: build_mesh(x).columns, 4),
    ("mzi_count", lambda x: ChipLayoutSpec(mzi_count=x).mzi_count, 3),
    ("seed", lambda x: fabricate_chip(x, ChipLayoutSpec(mzi_count=3)).seed, 7),
    ("bits", lambda x: Challenge(levels=(1,), bits=x).bits, 3),
    ("samples_per_response",
     lambda x: NoiseConfig(samples_per_response=x).samples_per_response, 10),
    ("seed", lambda x: NoiseStream(x, 4).seed[0], 5),
    ("mode_count", lambda x: NoiseStream(1, x).mode_count, 4),
    ("measurement_index", lambda x: NoiseStream(1, 4).drift_factors(x).tolist(), 3),
    ("looseness", lambda x: loose_hamming_distance(A, B, x), 2),
    ("looseness", lambda x: uniqueness([A, B], x), 2),
    ("looseness_max", lambda x: looseness_sweep([(A, B)], [(A, B)], x).looseness_values, 3),
    ("challenge_id", lambda x: CrpRecord(x, Challenge(levels=(1,)), A).challenge_id, 4),
    ("looseness", lambda x: VerifyPolicy(looseness=x).looseness, 2),
    ("lhd_threshold", lambda x: VerifyPolicy(lhd_threshold=x).lhd_threshold, 1),
    ("challenge_id", lambda x: DB.record(x).challenge_id, 1),
    ("challenge_id", lambda x: verify(DB, x, REFERENCE).challenge_id, 0),
    ("challenge_count", lambda x: len(enroll(DEVICE, x, 1, noise_config=QUIET)), 2),
    ("repeats_per_challenge",
     lambda x: enroll(DEVICE, 1, x, noise_config=QUIET).records[0].repeat_stats.count, 2),
    ("rng_seed",
     lambda x: enroll(DEVICE, 1, 1, rng_seed=x, noise_config=QUIET).records[0].challenge, 5),
    ("looseness", lambda x: calibrate_policy(DB, [(0, REFERENCE)], [], x).looseness, 2),
    ("challenge_count", lambda x: small_pair_config(challenge_count=x).challenge_count, 5),
    ("repeat_count", lambda x: small_pair_config(repeat_count=x).repeat_count, 3),
    ("seed", lambda x: small_pair_config(seed=x).seed, 5),
    ("headline_looseness", lambda x: small_pair_config(headline_looseness=x).headline_looseness, 2),
    ("looseness_max", lambda x: small_pair_config(looseness_max=x).looseness_max, 4),
]


@pytest.mark.parametrize("name, call, good", SCALARS,
                         ids=[f"{i}-{name}" for i, (name, _, _) in enumerate(SCALARS)])
def test_a_scalar_integer_is_an_int_or_a_numpy_integer(name, call, good):
    # neither a bool nor a float counts, not even an integral one
    for bad in (True, 2.5, 2.0):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            call(bad)
    expected = call(good)
    accepted = call(np.int64(good))
    assert accepted == expected and type(accepted) is type(expected)
    if isinstance(expected, tuple):
        assert all(type(item) is int for item in accepted)


# every seed a caller passes: (its name, a call taking it); numpy would
# refuse a negative one only once it is drawn from, naming no field
SEEDS = [
    ("seed", lambda x: fabricate_chip(x, ChipLayoutSpec(mzi_count=3))),
    ("seed", lambda x: NoiseStream(x, 4)),
    ("seed", lambda x: NoiseStream((3, x), 4)),
    ("rng_seed", lambda x: enroll(DEVICE, 1, 1, rng_seed=x, noise_config=QUIET)),
    ("seed", lambda x: small_pair_config(seed=x)),
    ("chip_seeds", lambda x: ExperimentConfig(chip_seeds=(x,))),
    ("chip_seeds", lambda x: ExperimentConfig(chip_seeds=(5, x))),
]


@pytest.mark.parametrize("name, call", SEEDS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(SEEDS)])
def test_a_negative_seed_is_refused_with_its_name(name, call):
    for bad in (-1, np.int64(-3)):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got {bad}$"):
            call(bad)
    call(0)


def test_a_stored_negative_seed_is_refused():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        config_from_dict({"preset": "small-pair", "seed": -1})


@pytest.mark.parametrize("build, bad", [
    (lambda: ExperimentConfig(chip_seeds=(True,)), True),
    (lambda: Challenge(levels=(True,) * 10), True),
    (lambda: QuantizedResponse(bins=(True, 2)), True),
    (lambda: ChipLayoutSpec(3, adjacency=((0.5, 2),)), 0.5),
    (lambda: NoiseStream((1.5, 2), 4), 1.5),
    (lambda: NoiseStream((2, False), 4), False),
], ids=["chip_seeds", "levels", "bins", "adjacency", "seed-fraction", "seed-bool"])
def test_an_integer_sequence_refuses_a_bool_and_a_fraction(build, bad):
    # an integral float is cast, as a stored 10.0 is read as 10
    with pytest.raises(ValueError, match=f"^expected an integer, got {bad!r}$"):
        build()
