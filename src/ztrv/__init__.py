"""Zero-trust runtime verifier for mandate-based agentic payments.

Fail-closed verification gateway enforcing context-aware binding and
consume-once nonce semantics, plus a deterministic adversarial simulation
harness for evaluating it.
"""

from .mandate import (
    ExecutionContext,
    IssuerKey,
    Keystore,
    Mandate,
    PaymentPayload,
    VerificationRequest,
    WireFormatError,
    canonical_encode,
    hash_context_fields,
    issue_mandate,
    mandate_from_wire,
    mandate_to_wire,
    request_from_wire,
    request_to_wire,
    verify_signature,
)
from .registry import NonceRegistry, RegistryStats
from .verifier import (
    Decision,
    Mode,
    Outcome,
    Reason,
    StageTimings,
    VerifierConfig,
    verify,
)
from .gateway import ConfigError, GatewayConfig, MockMerchant, ZtrvGateway, load_config


def __getattr__(name: str):
    # PEP 562: called for names not bound above.  Those in __all__ are the
    # experiment harness's, imported on first use: serving needs none of it.
    if name in __all__:
        from . import simharness
        return getattr(simharness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AttackKind",
    "AttackScenario",
    "ConfigError",
    "Decision",
    "ExecutionContext",
    "GatewayConfig",
    "IssuerKey",
    "Keystore",
    "Mandate",
    "MockMerchant",
    "Mode",
    "NonceRegistry",
    "Outcome",
    "PaymentPayload",
    "Reason",
    "RegistryStats",
    "SimReport",
    "StageTimings",
    "ThroughputPoint",
    "TimedRequest",
    "TtlSweepPoint",
    "VIRTUAL_EPOCH_MS",
    "VerificationRequest",
    "VerifierConfig",
    "WireFormatError",
    "ZtrvGateway",
    "ablation_run",
    "attack_eval",
    "canonical_encode",
    "capacity_probe",
    "gen_legit_workload",
    "hash_context_fields",
    "inject_attack",
    "interception_matrix",
    "issue_mandate",
    "load_config",
    "mandate_from_wire",
    "mandate_to_wire",
    "request_from_wire",
    "request_to_wire",
    "run_experiment",
    "sim_issuer",
    "throughput_bench",
    "ttl_sweep",
    "verify",
    "verify_signature",
]
