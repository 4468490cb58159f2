"""Simulator for reconfigurable Mach-Zehnder-mesh photonic PUFs.

End to end: fabrication randomness gives each chip a unique analog
fingerprint, carved pyramid meshes turn voltage challenges into output
intensity patterns, noisy measurement and quantization produce compact
responses, and exact combinatorics bound the distinguishable
challenge-response space.  A small protocol layer handles enrollment,
one-time challenge issuance, and dual-threshold verification.
"""

from .combinatorics import (
    catalan,
    chip_crp_total,
    crp_table,
    distinguishable_crp_count,
    naive_challenge_bound,
    to_scientific,
    tree_counts_by_height,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    emit_artifacts,
    large_pair_config,
    run_pair_experiment,
    small_pair_config,
)
from .fabrication import (
    Challenge,
    ChipFingerprint,
    ChipLayoutSpec,
    DeviceInstance,
    LARGE_PAIR,
    NoiseConfig,
    NoiseStream,
    RawResponse,
    SMALL_PAIR,
    carve_device,
    fabricate_chip,
    load_chip,
    load_device,
    measure,
    measure_batch,
    preset_by_name,
    save_chip,
    save_device,
    shared_mzi_count,
    voltages_to_phases,
)
from .mesh import (
    CouplerPair,
    MeshLayout,
    MziSettings,
    build_mesh,
    ideal_mzi_sine_cosine,
    mesh_transfer_matrix,
    mzi_unitary,
    propagate,
)
from .metrics import (
    DegenerateResponseError,
    DistanceStats,
    LoosenessSweep,
    QuantizedResponse,
    distance_stats,
    euclidean_distance,
    loose_hamming_distance,
    looseness_sweep,
    quantize,
    uniqueness,
)
from .protocol import (
    AuthDecision,
    CollisionReport,
    CrpDatabase,
    CrpRecord,
    ExhaustedDatabaseError,
    VerifyPolicy,
    audit_collisions,
    calibrate_policy,
    enroll,
    issue_challenge,
    verify,
)

__version__ = "0.1.0"
