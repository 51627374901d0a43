"""repro.api: the unified, job-oriented verification API.

Declarative :mod:`Specs <repro.api.specs>` describe *what* to verify; one
:class:`~repro.api.config.VerifyConfig` holds every solver knob; the
:class:`~repro.api.engine.VerificationEngine` executes Specs (singly or
batched on the shared pool) and returns uniform
:class:`~repro.api.verdict.Verdict` objects with provenance.

Quick start::

    import numpy as np
    from repro.api import (ContainmentSpec, VerificationEngine, VerifyConfig)
    from repro.domains import Box
    from repro.nn import random_relu_network

    net = random_relu_network([4, 16, 2], seed=0)
    engine = VerificationEngine(VerifyConfig(workers=4))
    verdict = engine.verify(ContainmentSpec(
        network=net,
        input_box=Box(-np.ones(4), np.ones(4)),
        target=Box(-50 * np.ones(2), 50 * np.ones(2))))
    assert verdict.holds

This ``__init__`` resolves its exports lazily (PEP 562).  That is load-
bearing, not cosmetic: the low-level solver modules (``repro.exact.bab``
and friends) import their keyword defaults from ``repro.api.config``, so
importing this package must not eagerly pull the engine -- which sits
*above* those modules -- back in while they are still initialising.
"""

from __future__ import annotations

_EXPORTS = {
    # config
    "VerifyConfig": "repro.api.config",
    "ServeConfig": "repro.api.config",
    "DEFAULT_CERT_POLICY": "repro.api.config",
    "CERT_POLICIES": "repro.api.config",
    # specs
    "Spec": "repro.api.specs",
    "ContainmentSpec": "repro.api.specs",
    "OutputRangeSpec": "repro.api.specs",
    "ThresholdSpec": "repro.api.specs",
    "MaximizeSpec": "repro.api.specs",
    "PropositionSpec": "repro.api.specs",
    "ContinuousLoopSpec": "repro.api.specs",
    "SPEC_TYPES": "repro.api.specs",
    "spec_to_dict": "repro.api.specs",
    "spec_from_dict": "repro.api.specs",
    "spec_to_json": "repro.api.specs",
    "spec_from_json": "repro.api.specs",
    # wire serialization (the remote-executor JSON forms)
    "config_to_json": "repro.api.serialize",
    "config_from_json": "repro.api.serialize",
    "verdict_to_dict": "repro.api.serialize",
    "verdict_from_dict": "repro.api.serialize",
    "verdict_to_json": "repro.api.serialize",
    "verdict_from_json": "repro.api.serialize",
    "canonical_verdict_json": "repro.api.serialize",
    "verdict_decision_json": "repro.api.serialize",
    "certificate_to_json": "repro.api.serialize",
    "certificate_from_json": "repro.api.serialize",
    # verdicts
    "Provenance": "repro.api.verdict",
    "Verdict": "repro.api.verdict",
    "ContainmentVerdict": "repro.api.verdict",
    "RangeVerdict": "repro.api.verdict",
    "ThresholdVerdict": "repro.api.verdict",
    "MaximizeVerdict": "repro.api.verdict",
    "PropositionVerdict": "repro.api.verdict",
    "ContinuousVerdict": "repro.api.verdict",
    "BaselineVerdict": "repro.api.verdict",
    "FailedVerdict": "repro.api.verdict",
    # engine
    "VerificationEngine": "repro.api.engine",
    "verify": "repro.api.engine",
    "submit": "repro.api.engine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}") \
            from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
