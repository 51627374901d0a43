"""Delta-verification certificates (PR 9): wire round-trips, validation,
warm-started byte-identical verdicts, soundness under corruption, and the
reuse counters flowing through the continuous loop.

The invariant every test here circles: a certificate is a *hint*.  It may
make re-verification cheaper (and the perturbation tests assert it does);
corrupted, stale, or adversarial payloads may make it slower -- but the
decision must be byte-identical to a from-scratch solve in every case.
"""

import base64
import json

import numpy as np
import pytest

from repro.api import (
    ContinuousLoopSpec,
    MaximizeSpec,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
    canonical_verdict_json,
    certificate_from_json,
    certificate_to_json,
    verdict_decision_json,
)
from repro.certs import (
    certificate_key,
    extract_certificate,
    load_certificate,
    reverify_with_certificate,
    structural_fingerprint,
    validate_certificate,
)
from repro.domains import Box
from repro.errors import CertificateError
from repro.exact import CoveringLeaves, NetworkEncoding
from repro.exact.encoding import PackedDuals
from repro.nn.builders import random_relu_network


class MemCerts:
    """Minimal in-memory certificate provider (wire strings only)."""

    def __init__(self):
        self.entries = {}
        self.gets = 0

    def cert_get(self, cert_key):
        self.gets += 1
        return self.entries.get(cert_key)

    def cert_put(self, cert_key, cert_json):
        self.entries[cert_key] = cert_json


@pytest.fixture(scope="module")
def threshold_problem():
    """A provable threshold instance with a non-trivial BaB search."""
    net = random_relu_network([3, 10, 6, 1], seed=3)
    box = Box(-np.ones(3), np.ones(3))
    c = np.ones(1)
    opt = VerificationEngine(VerifyConfig()).verify(
        MaximizeSpec(network=net, input_box=box,
                     objective=c)).result.upper_bound
    threshold = opt + 0.1 * abs(opt) + 0.05
    return net, box, c, threshold


def _spec(net, box, c, threshold):
    return ThresholdSpec(network=net, input_box=box, objective=c,
                         threshold=threshold)


def _record(threshold_problem, store, workers=1):
    """Prove once under ``certs='record'``; returns the recorded wire."""
    net, box, c, thr = threshold_problem
    cfg = VerifyConfig(certs="record", workers=workers)
    verdict = VerificationEngine(cfg, certs=store).verify(
        _spec(net, box, c, thr))
    assert verdict.holds is True
    assert len(store.entries) == 1
    return next(iter(store.entries.values()))


class TestWire:
    def test_round_trip_preserves_payload(self, threshold_problem):
        store = MemCerts()
        cert_json = _record(threshold_problem, store)
        cert = certificate_from_json(cert_json)
        again = certificate_from_json(certificate_to_json(cert))
        assert again.structural_fp == cert.structural_fp
        assert again.config_digest == cert.config_digest
        assert np.array_equal(again.leaves, cert.leaves)
        assert again.lp_solves == cert.lp_solves
        assert len(again.leaf_duals) == len(cert.leaf_duals)
        for a, b in zip(again.leaf_duals, cert.leaf_duals):
            if a is None or b is None:
                assert a is b
            else:
                for xa, xb in zip(a, b):
                    np.testing.assert_array_equal(xa, xb)

    def test_duals_survive_the_store(self, threshold_problem):
        store = MemCerts()
        cert = load_certificate(_record(threshold_problem, store))
        assert cert.leaf_duals and any(d is not None
                                       for d in cert.leaf_duals)


def _wire_dict(threshold_problem):
    """A recorded certificate as a parsed wire dict, plus its store key."""
    store = MemCerts()
    cert_json = _record(threshold_problem, store)
    return json.loads(cert_json), next(iter(store.entries))


def _assert_cold_fallback(threshold_problem, payload):
    """Store ``payload`` under the problem's key: the reuse engine must
    reject it and return the from-scratch decision."""
    net, box, c, thr = threshold_problem
    store = MemCerts()
    store.entries[certificate_key(net, box, c, thr,
                                  VerifyConfig(certs="reuse"))] = payload
    warm = VerificationEngine(VerifyConfig(certs="reuse"),
                              certs=store).verify(_spec(net, box, c, thr))
    cold = VerificationEngine(VerifyConfig()).verify(_spec(net, box, c, thr))
    assert warm.provenance.cert_hit is False
    assert verdict_decision_json(warm) == verdict_decision_json(cold)


class TestPackedWire:
    """Certificate wire v3: the duals travel as one packed little-endian
    float64 matrix; every malformation of it is a CertificateError."""

    def test_reencode_is_byte_identical(self, threshold_problem):
        cert_json = _record(threshold_problem, MemCerts())
        assert certificate_to_json(load_certificate(cert_json)) == cert_json
        data = json.loads(cert_json)
        assert data["version"] == 5
        assert set(data) == {"version", "objective", "threshold", "leaves",
                             "leaf_duals", "block_dims", "structural_fp",
                             "config_digest", "lp_solves"}
        assert set(data["leaves"]) == {"width", "data"}
        assert set(data["leaf_duals"]) == {"present", "split", "width",
                                           "data"}

    def test_decoded_duals_are_read_only_float64_views(
            self, threshold_problem):
        cert = load_certificate(_record(threshold_problem, MemCerts()))
        parts = [part for d in cert.leaf_duals if d is not None
                 for part in d]
        assert parts
        for part in parts:
            assert part.dtype == np.float64
            assert not part.flags.writeable

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda d: d.update(data="!!not base64!!"),
                     id="non-base64"),
        pytest.param(lambda d: d.update(
            data=base64.b64encode(base64.b64decode(d["data"])[:-8])
            .decode()), id="short-bytes"),
        pytest.param(lambda d: d.update(
            present=[0] * len(d["present"])), id="present-count-vs-rows"),
        pytest.param(lambda d: d.update(present=d["present"] + [0]),
                     id="present-length-vs-leaves"),
        pytest.param(lambda d: d.update(split=d["width"] + 1),
                     id="split-over-width"),
        pytest.param(lambda d: d.update(width=-1), id="negative-width"),
        pytest.param(lambda d: d.update(present=[2] + d["present"][1:]),
                     id="present-not-0-1"),
        pytest.param(lambda d: d.update(present=[True] + d["present"][1:]),
                     id="present-bool"),
        pytest.param(lambda d: d.update(data=12345), id="data-not-string"),
        pytest.param(lambda d: d.update(data=None), id="data-null"),
        pytest.param(lambda d: d.pop("width"), id="missing-width"),
        pytest.param(lambda d: d.update(split=1.5), id="split-not-int"),
    ])
    def test_malformed_packed_duals_are_rejected(self, threshold_problem,
                                                 mutate):
        data, _key = _wire_dict(threshold_problem)
        mutate(data["leaf_duals"])
        with pytest.raises(CertificateError, match="unreadable"):
            load_certificate(json.dumps(data))

    def test_leaf_matrix_round_trips_byte_identically(
            self, threshold_problem):
        cert_json = _record(threshold_problem, MemCerts())
        cert = load_certificate(cert_json)
        net = threshold_problem[0]
        assert cert.leaves.dtype == np.int8
        assert cert.leaves.shape[1] == sum(net.block_dims()[1:])
        assert not cert.leaves.flags.writeable
        assert set(np.unique(cert.leaves)) <= {-1, 0, 1}
        wire = json.loads(cert_json)["leaves"]
        assert base64.b64decode(wire["data"]) == cert.leaves.tobytes()
        copy = load_certificate(cert_json)
        copy.leaves = np.array(cert.leaves)  # a fresh, writable matrix
        assert certificate_to_json(copy) == cert_json

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda d: d.update(width=d["width"] + 1),
                     id="width-not-dividing-bytes"),
        pytest.param(lambda d: d.update(width=0), id="zero-width"),
        pytest.param(lambda d: d.update(width=-3), id="negative-width"),
        pytest.param(lambda d: d.update(width=2.0), id="float-width"),
        pytest.param(lambda d: d.update(width=True), id="bool-width"),
        pytest.param(lambda d: d.update(width="29"), id="string-width"),
        pytest.param(lambda d: d.update(
            data=base64.b64encode(base64.b64decode(d["data"])[:-1])
            .decode()), id="short-bytes"),
        pytest.param(lambda d: d.update(data=base64.b64encode(
            b"\x02" + base64.b64decode(d["data"])[1:]).decode()),
            id="value-2"),
        pytest.param(lambda d: d.update(data=base64.b64encode(
            b"\xff" * len(base64.b64decode(d["data"]))).decode()),
            id="all-minus-1-not-a-partition"),
        pytest.param(lambda d: d.update(data="!!not base64!!"),
                     id="non-base64"),
        pytest.param(lambda d: d.update(data=""), id="empty-matrix"),
        pytest.param(lambda d: d.update(data=None), id="data-null"),
        pytest.param(lambda d: d.pop("width"), id="missing-width"),
    ])
    def test_malformed_packed_leaves_fall_back_cold(self, threshold_problem,
                                                    mutate):
        data, _key = _wire_dict(threshold_problem)
        mutate(data["leaves"])
        payload = json.dumps(data, sort_keys=True)
        with pytest.raises(CertificateError):
            net, _box, c, thr = threshold_problem
            validate_certificate(load_certificate(payload), net, c, thr,
                                 VerifyConfig(certs="reuse"))
        _assert_cold_fallback(threshold_problem, payload)

    def test_v4_payload_is_rejected_and_falls_back_cold(
            self, threshold_problem):
        """A v4 payload (with the record-time screen bounds and verdicts,
        content fingerprint, status and bound that v5 dropped) misses by
        key in a store; forced under a v5 key, its version fails
        validation and its unknown keys fail to decode, and the solve runs
        cold."""
        net, _box, c, thr = threshold_problem
        data, _key = _wire_dict(threshold_problem)
        data["version"] = 4
        with pytest.raises(CertificateError, match="version 4 != 5"):
            validate_certificate(
                load_certificate(json.dumps(data, sort_keys=True)), net, c,
                thr, VerifyConfig(certs="reuse"))
        n = len(data["leaf_duals"]["present"])
        data.update(leaf_bounds=[0.0] * n,
                    leaf_verdicts=["open"] * n, content_fp="0" * 64,
                    status="threshold_proved", upper_bound=0.0)
        payload = json.dumps(data, sort_keys=True)
        with pytest.raises(CertificateError,
                           match="unknown certificate keys"):
            load_certificate(payload)
        _assert_cold_fallback(threshold_problem, payload)

    def test_non_finite_dual_row_costs_its_leaf_only(self,
                                                     threshold_problem):
        """NaN/inf multipliers survive the wire bit for bit and evaluate
        to +inf for their own leaf alone; the decision stays cold."""
        from repro.domains.batch import phase_clamped_affine_bounds

        net, box, c, thr = threshold_problem
        cert = load_certificate(_record(threshold_problem, MemCerts()))
        _upper, feasible, pre_lo, pre_hi = phase_clamped_affine_bounds(
            net, box, cert.leaves, c)
        rows = [j for j, d in enumerate(cert.leaf_duals)
                if d is not None and feasible[j]]
        enc = NetworkEncoding.for_problem(net, box)
        neg_obj = -enc.output_objective(c)

        def uppers(duals):
            return enc.lagrangian_uppers(
                neg_obj, cert.leaves[rows],
                [lo[rows] for lo in pre_lo], [hi[rows] for hi in pre_hi],
                duals.take(rows))

        clean = uppers(cert.leaf_duals)
        assert np.isfinite(clean).all()
        for bad_value in (np.nan, np.inf):
            tampered = load_certificate(certificate_to_json(cert))
            packed = tampered.leaf_duals
            matrix = packed.matrix.copy()
            matrix[int(packed.present[:rows[0]].sum()), 0] = bad_value
            tampered.leaf_duals = PackedDuals(matrix, packed.present,
                                              packed.split)
            wire = certificate_to_json(tampered)
            again = load_certificate(wire)
            assert certificate_to_json(again) == wire
            bounds = uppers(again.leaf_duals)
            assert bounds[0] == np.inf
            np.testing.assert_array_equal(bounds[1:], clean[1:])
            store = MemCerts()
            store.entries[certificate_key(
                net, box, c, thr, VerifyConfig(certs="reuse"))] = wire
            spec = _spec(net.perturb(0.002, rng=np.random.default_rng(7)),
                         box, c, thr)
            warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                      certs=store).verify(spec)
            cold = VerificationEngine(VerifyConfig()).verify(spec)
            assert warm.provenance.cert_hit is True
            assert verdict_decision_json(warm) == \
                verdict_decision_json(cold)

    def test_v2_payload_is_rejected_and_falls_back_cold(
            self, threshold_problem):
        data, _key = _wire_dict(threshold_problem)
        cert = load_certificate(json.dumps(data))
        data["version"] = 2
        data["leaf_duals"] = [
            None if d is None else [part.tolist() for part in d]
            for d in cert.leaf_duals]
        payload = json.dumps(data, sort_keys=True)
        with pytest.raises(CertificateError, match="wire v3"):
            load_certificate(payload)
        _assert_cold_fallback(threshold_problem, payload)

    def test_wrong_width_duals_fall_back_without_raising(
            self, threshold_problem):
        """A self-consistent packed block of the wrong row width decodes
        and validates (only the dual count is checked), evaluates to +inf
        everywhere, and must not crash the re-record: screen-settled
        leaves keep the stored rows while LP-solved ones get fresh rows
        of the right width."""
        net, box, c, thr = threshold_problem
        data, key = _wire_dict(threshold_problem)
        duals = data["leaf_duals"]
        assert 0 < sum(duals["present"]) < len(duals["present"])
        rows = len(duals["present"])
        width = duals["width"] + 1
        duals.update(present=[1] * rows, split=duals["split"] + 1,
                     width=width,
                     data=base64.b64encode(
                         np.zeros((rows, width), "<f8").tobytes()).decode())
        store = MemCerts()
        store.entries[key] = json.dumps(data, sort_keys=True)
        warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                  certs=store).verify(_spec(net, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(net, box, c, thr))
        assert warm.provenance.cert_hit is True
        assert verdict_decision_json(warm) == verdict_decision_json(cold)
        recorded = json.loads(store.entries[key])["leaf_duals"]
        assert recorded["width"] == sum(
            NetworkEncoding.for_problem(net, box).dual_rows())

    def test_unstable_set_change_records_cleanly(self, threshold_problem):
        """Pinning one hidden neuron inactive shrinks the unstable set, so
        the node layout -- and the dual row width -- changes under a
        stored certificate.  Carried-over duals of the old width are
        dropped at re-record instead of breaking the packed matrix."""
        net, box, c, thr = threshold_problem
        data, key = _wire_dict(threshold_problem)
        payload = json.dumps(data, sort_keys=True)
        old_rows = NetworkEncoding.for_problem(net, box).dual_rows()
        rerecorded = 0
        for unit in range(net.blocks()[0].dense.bias.size):
            pinned = net.copy()
            pinned.blocks()[0].dense.bias[unit] = -1e3
            enc = NetworkEncoding.for_problem(pinned, box)
            assert enc.dual_rows() != old_rows
            store = MemCerts()
            store.entries[key] = payload
            spec = _spec(pinned, box, c, thr)
            warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                      certs=store).verify(spec)
            cold = VerificationEngine(VerifyConfig()).verify(spec)
            assert verdict_decision_json(warm) == \
                verdict_decision_json(cold)
            if store.entries[key] != payload:
                rerecorded += 1
                recorded = load_certificate(store.entries[key])
                assert recorded.leaf_duals
                for dual in recorded.leaf_duals:
                    assert dual is None or \
                        (dual[0].size, dual[1].size) == enc.dual_rows()
        assert rerecorded


class TestUntrustedDecode:
    """Numbers too large for an int, ill-typed scalars and nesting too
    deep to parse are rejections like any other malformed payload."""

    @pytest.mark.parametrize("field, raw", [
        ("lp_solves", "1e400"),       # was OverflowError
        ("version", "1e400"),         # was OverflowError
        ("leaves.width", "1e400"),
        ("version", "4.9"),           # was truncated to 4
        ("version", '"4"'),           # was cast to 4
        ("lp_solves", "2.5"),         # was truncated to 2
        ("lp_solves", '"7"'),         # was cast to 7
        ("lp_solves", "true"),
        ("threshold", '"5"'),         # was cast to 5.0
        ("threshold", "[1]"),         # was a bare TypeError
        ("block_dims", "[3.0, 10, 6, 1]"),
    ])
    def test_ill_typed_number_is_certificate_error(self, threshold_problem,
                                                   field, raw):
        """Numbers are read strictly: no int()/float() to overflow or to
        cast silently, a plain SerializationError instead."""
        data, _key = _wire_dict(threshold_problem)
        *parents, key = field.split(".")
        node = data
        for part in parents:
            node = node[part]
        node[key] = "__BAD__"
        payload = json.dumps(data).replace('"__BAD__"', raw)
        with pytest.raises(CertificateError, match="SerializationError"):
            load_certificate(payload)
        _assert_cold_fallback(threshold_problem, payload)

    @pytest.mark.parametrize("field, raw", [
        ("structural_fp", "7"),       # was cast to "7"
        ("config_digest", "null"),    # was cast to "None"
    ])
    def test_non_string_digest_is_certificate_error(self, threshold_problem,
                                                    field, raw):
        data, _key = _wire_dict(threshold_problem)
        data[field] = "__BAD__"
        payload = json.dumps(data).replace('"__BAD__"', raw)
        with pytest.raises(CertificateError,
                           match=f"certificate {field} must be a JSON string"):
            load_certificate(payload)
        _assert_cold_fallback(threshold_problem, payload)

    def test_non_finite_floats_decode(self, threshold_problem):
        """``float_to_jsonable``'s strings are the wire form of inf/nan."""
        data, _key = _wire_dict(threshold_problem)
        data.update(threshold="-inf", objective=["nan"])
        cert = load_certificate(json.dumps(data))
        assert cert.threshold == -np.inf and np.isnan(cert.objective[0])

    def test_deep_nesting_is_certificate_error(self, threshold_problem):
        data, _key = _wire_dict(threshold_problem)
        data["leaves"] = "__DEEP__"
        payload = json.dumps(data).replace(
            '"__DEEP__"', "[" * 100_000 + "]" * 100_000)
        with pytest.raises(CertificateError, match="nested too deeply"):
            load_certificate(payload)
        _assert_cold_fallback(threshold_problem, payload)


class TestValidation:
    def test_garbage_payload_is_certificate_error(self):
        with pytest.raises(CertificateError, match="unreadable"):
            load_certificate("{not json")
        with pytest.raises(CertificateError, match="unreadable"):
            load_certificate(json.dumps({"version": 1}))

    def test_structural_fingerprint_ignores_weights(self, threshold_problem):
        net = threshold_problem[0]
        perturbed = net.perturb(0.01, rng=np.random.default_rng(0))
        assert structural_fingerprint(net) == \
            structural_fingerprint(perturbed)
        other = random_relu_network([3, 9, 6, 1], seed=3)
        assert structural_fingerprint(net) != structural_fingerprint(other)

    def test_weight_change_keeps_key_other_changes_miss(
            self, threshold_problem):
        net, box, c, thr = threshold_problem
        cfg = VerifyConfig()
        key = certificate_key(net, box, c, thr, cfg)
        perturbed = net.perturb(0.01, rng=np.random.default_rng(1))
        assert certificate_key(perturbed, box, c, thr, cfg) == key
        assert certificate_key(net, box, c, thr + 1.0, cfg) != key
        assert certificate_key(net, box, c, thr,
                               cfg.replace(tol=1e-7)) != key
        # The record/reuse policy knob must not move the slot.
        assert certificate_key(net, box, c, thr,
                               cfg.replace(certs="reuse")) == key

    def test_stale_architecture_is_rejected(self, threshold_problem):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        cert = load_certificate(_record(threshold_problem, store))
        other = random_relu_network([3, 9, 6, 1], seed=5)
        with pytest.raises(CertificateError, match="fingerprint"):
            validate_certificate(cert, other, c, thr, VerifyConfig())
        with pytest.raises(CertificateError, match="config"):
            validate_certificate(cert, net, c, thr,
                                 VerifyConfig(tol=1e-7))
        with pytest.raises(CertificateError, match="threshold"):
            validate_certificate(cert, net, c, thr + 1.0, VerifyConfig())

    def test_warm_start_from_another_architecture_raises(
            self, threshold_problem):
        net, box, c, thr = threshold_problem
        cert = load_certificate(_record(threshold_problem, MemCerts()))
        other = random_relu_network([3, 9, 6, 1], seed=5)
        with pytest.raises(CertificateError, match="architecture"):
            reverify_with_certificate(other, box, c, thr, cert)

    def test_dual_count_mismatch_is_rejected(self, threshold_problem):
        net, _box, c, thr = threshold_problem
        store = MemCerts()
        cert = load_certificate(_record(threshold_problem, store))
        duals = cert.leaf_duals
        cert.leaf_duals = PackedDuals(duals.matrix,
                                      np.append(duals.present, False),
                                      duals.split)
        with pytest.raises(CertificateError, match="dual"):
            validate_certificate(cert, net, c, thr, VerifyConfig())


class TestWarmStart:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_verdict_byte_identical_to_scratch(self, threshold_problem,
                                               workers):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        rng = np.random.default_rng(7)
        current = net
        recorder = VerificationEngine(
            VerifyConfig(certs="reuse", workers=workers), certs=store)
        for _ in range(3):
            current = current.perturb(0.002, rng=rng)
            spec = _spec(current, box, c, thr)
            warm = recorder.verify(spec)
            cold = VerificationEngine(
                VerifyConfig(workers=workers)).verify(spec)
            assert verdict_decision_json(warm) == \
                verdict_decision_json(cold)

    def test_reuse_saves_lp_solves(self, threshold_problem):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=store)
        first = engine.verify(_spec(net, box, c, thr))
        assert first.provenance.cert_hit is False
        perturbed = net.perturb(0.002, rng=np.random.default_rng(7))
        warm = engine.verify(_spec(perturbed, box, c, thr))
        assert warm.provenance.cert_hit is True
        assert warm.provenance.nodes_reused > 0
        assert warm.provenance.lp_solves_saved > 0
        assert warm.result.lp_solves < first.result.lp_solves

    def test_policy_off_never_touches_the_store(self, threshold_problem):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        VerificationEngine(VerifyConfig(certs="off"),
                           certs=store).verify(_spec(net, box, c, thr))
        assert store.gets == 0 and store.entries == {}


class TestSoundness:
    def test_corrupted_payload_falls_back_to_scratch(self,
                                                     threshold_problem):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        key = certificate_key(net, box, c, thr,
                              VerifyConfig(certs="reuse"))
        store.entries[key] = "{corrupt"
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=store)
        verdict = engine.verify(_spec(net, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(net, box, c, thr))
        assert verdict.provenance.cert_hit is False
        assert verdict_decision_json(verdict) == verdict_decision_json(cold)
        # The failed reuse re-recorded a *valid* certificate in its place.
        load_certificate(store.entries[key])

    def test_adversarial_duals_cannot_flip_the_verdict(
            self, threshold_problem):
        """Stored multipliers feed a weak-duality bound: ANY values are
        sound, so sabotaging them may cost LPs but never the decision."""
        net, box, c, thr = threshold_problem
        store = MemCerts()
        cert_json = _record(threshold_problem, store)
        key = next(iter(store.entries))
        cert = load_certificate(cert_json)
        rng = np.random.default_rng(0)
        duals = cert.leaf_duals
        cert.leaf_duals = PackedDuals(
            rng.normal(scale=1e6, size=duals.matrix.shape), duals.present,
            duals.split)
        store.entries[key] = certificate_to_json(cert)
        perturbed = net.perturb(0.002, rng=np.random.default_rng(7))
        warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                  certs=store).verify(
            _spec(perturbed, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(perturbed, box, c, thr))
        assert verdict_decision_json(warm) == verdict_decision_json(cold)

    def test_shrunken_leaf_cover_is_rejected(self, threshold_problem):
        """A certificate whose leaves no longer cover the input region
        must be rejected at validation, not silently half-searched."""
        net, box, c, thr = threshold_problem
        store = MemCerts()
        key_json = _record(threshold_problem, store)
        key = next(iter(store.entries))
        cert = load_certificate(key_json)
        if len(cert.leaves) < 2:
            pytest.skip("frontier collapsed to one leaf")
        cert.leaves = cert.leaves[1:]
        cert.leaf_duals = cert.leaf_duals.take(slice(1, None))
        store.entries[key] = certificate_to_json(cert)
        warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                  certs=store).verify(
            _spec(net, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(net, box, c, thr))
        assert warm.provenance.cert_hit is False
        assert verdict_decision_json(warm) == verdict_decision_json(cold)


class TestFixedLayoutDuals:
    """Node-LP duals follow the fixed node layout (base rows plus two
    phase rows per unstable neuron)."""

    def test_lagrangian_of_own_duals_reproduces_lp_value(
            self, threshold_problem):
        from repro.domains.batch import phase_clamped_affine_bounds
        from repro.exact import BaBSolver

        net, box, c, _thr = threshold_problem
        solver = BaBSolver(net, box)
        enc = solver.encoding
        neg_obj = -enc.output_objective(c)
        unstable = enc.unstable_neurons()
        rng = np.random.default_rng(3)
        leaves = [{}] + [{unstable[int(j)]: int(rng.choice((-1, 1)))
                          for j in rng.choice(len(unstable), size=2,
                                              replace=False)}
                         for _ in range(6)]
        _upper, feasible, pre_lo, pre_hi = phase_clamped_affine_bounds(
            net, box, leaves, c)
        solved = {}
        for j, leaf in enumerate(leaves):
            if not feasible[j]:
                continue
            tight = [(lo[j], hi[j]) for lo, hi in zip(pre_lo, pre_hi)]
            res = enc.solve_node(neg_obj, leaf, tight)
            if res.optimal:
                assert res.dual_ub.size == enc.build_lp().b_ub.size
                solved[j] = res
        assert len(solved) >= 2
        rows = sorted(solved)
        bounds = enc.lagrangian_uppers(
            neg_obj, [leaves[j] for j in rows],
            [lo[rows] for lo in pre_lo], [hi[rows] for hi in pre_hi],
            PackedDuals.pack([(solved[j].dual_ub, solved[j].dual_eq)
                              for j in rows]))
        for j, bound in zip(rows, bounds):
            assert np.isfinite(bound)
            assert bound == pytest.approx(-solved[j].value, rel=1e-7,
                                          abs=1e-7)

    def test_version_1_certificate_falls_back_to_cold(self,
                                                      threshold_problem):
        """A v1 certificate (old row layout) is rejected at validation:
        the solve runs cold and reaches the same decision."""
        net, box, c, thr = threshold_problem
        store = MemCerts()
        cert = load_certificate(_record(threshold_problem, store))
        key = next(iter(store.entries))
        cert.version = 1
        # The old layout had no phase rows: shorter dual vectors.
        phase_rows = 2 * len(NetworkEncoding(net, box).unstable_neurons())
        duals = cert.leaf_duals
        cert.leaf_duals = PackedDuals(
            np.delete(duals.matrix,
                      np.arange(duals.split - phase_rows, duals.split),
                      axis=1),
            duals.present, duals.split - phase_rows)
        store.entries[key] = certificate_to_json(cert)
        with pytest.raises(CertificateError, match="version"):
            validate_certificate(load_certificate(store.entries[key]), net,
                                 c, thr, VerifyConfig())
        warm = VerificationEngine(VerifyConfig(certs="reuse"),
                                  certs=store).verify(_spec(net, box, c, thr))
        cold = VerificationEngine(VerifyConfig()).verify(
            _spec(net, box, c, thr))
        assert warm.provenance.cert_hit is False
        assert verdict_decision_json(warm) == verdict_decision_json(cold)


class TestContinuousLoop:
    """The reuse counters ride the continuous path end to end."""

    @pytest.fixture(scope="class")
    def baseline(self):
        from repro.core.problem import VerificationProblem
        from repro.core.verifier import _verify_from_scratch

        net = random_relu_network([3, 8, 6, 2], seed=5)
        din = Box(-np.ones(3), np.ones(3))
        xs = np.random.default_rng(0).uniform(-1, 1, size=(500, 3))
        ys = np.array([net.forward(x) for x in xs])
        dout = Box(ys.min(axis=0) - 2.0, ys.max(axis=0) + 2.0)
        problem = VerificationProblem(net, din, dout)
        outcome = _verify_from_scratch(problem,
                                       config=VerifyConfig(certs="reuse"))
        assert outcome.holds
        return net, problem, outcome.artifacts

    def test_fallback_warm_starts_across_versions(self, baseline):
        from repro.core.continuous import ContinuousVerifier
        from repro.core.problem import SVbTV

        net, problem, artifacts = baseline
        store = MemCerts()
        verifier = ContinuousVerifier(artifacts,
                                      config=VerifyConfig(certs="reuse"),
                                      certs=store)
        rng = np.random.default_rng(11)
        current = net.perturb(0.002, rng=rng)
        first = verifier.verify_new_version(
            SVbTV(problem, current, None), strategies=(), with_fixing=False)
        assert first.holds is True and first.nodes_reused == 0
        current = current.perturb(0.002, rng=rng)
        second = verifier.verify_new_version(
            SVbTV(problem, current, None), strategies=(), with_fixing=False)
        assert second.holds is True
        assert second.nodes_reused > 0
        assert second.lp_solves_saved > 0

    def test_spec_path_reports_reuse_in_provenance(self, baseline):
        net, _problem, artifacts = baseline
        store = MemCerts()
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=store)
        rng = np.random.default_rng(11)
        current = net.perturb(0.002, rng=rng)
        spec = ContinuousLoopSpec(artifacts=artifacts, new_network=current,
                                  strategies=(), with_fixing=False)
        first = engine.verify(spec)
        assert first.holds is True
        current = current.perturb(0.002, rng=rng)
        second = engine.verify(
            ContinuousLoopSpec(artifacts=artifacts, new_network=current,
                               strategies=(), with_fixing=False))
        assert second.holds is True
        assert second.provenance.nodes_reused > 0
        assert second.provenance.lp_solves_saved > 0
        assert second.provenance.cert_hit is True
        assert second.result.nodes_reused == second.provenance.nodes_reused

    def test_loop_summary_prints_reuse(self):
        from repro.core.loop import EngineeringLoop, LoopStep
        from repro.core.problem import VerificationProblem

        net = random_relu_network([2, 3, 1], seed=0)
        problem = VerificationProblem(net, Box(-np.ones(2), np.ones(2)),
                                      Box(-np.ones(1) * 99, np.ones(1) * 99))
        loop = EngineeringLoop(problem)
        loop.history.append(LoopStep(kind="version", holds=True,
                                     strategy="full re-verification",
                                     elapsed=0.1, reverified=True,
                                     nodes_reused=4, lp_solves_saved=7))
        text = loop.summary()
        assert "reused 4 nodes" in text
        assert "saved 7 LPs" in text
        assert "certificate reuse saved 7 LP solves" in text


class TestRecordGate:
    """The recording gate of ``benchmarks/bench_recertify.py`` in tier-1:
    over a short perturbation sequence under ``certs="reuse"`` against a
    real in-memory ``JobStore``, every recorded certificate re-encodes
    byte-identically and its leaves pass the covering check, and every
    warm decision equals its from-scratch twin."""

    class CheckedCerts:
        """Certificate provider forwarding to a store, checking every
        certificate as it is recorded."""

        def __init__(self, store):
            self.store = store
            self.checked = 0

        def cert_get(self, cert_key):
            return self.store.cert_get(cert_key)

        def cert_put(self, cert_key, cert_json):
            from repro.certs import leaves_cover

            cert = load_certificate(cert_json)
            assert certificate_to_json(cert) == cert_json
            assert leaves_cover(cert.leaves)
            self.checked += 1
            self.store.cert_put(cert_key, cert_json)

    def test_recorded_certificates_reencode_cover_and_match_cold(self):
        from repro.serve import JobStore

        store = JobStore()
        checked = self.CheckedCerts(store)
        warm_engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                         certs=checked)
        cold_engine = VerificationEngine(VerifyConfig())
        saved = hits = 0
        try:
            for spec in _tuning_sequence():
                warm = warm_engine.verify(spec)
                cold = cold_engine.verify(spec)
                assert verdict_decision_json(warm) == \
                    verdict_decision_json(cold)
                saved += warm.provenance.lp_solves_saved
                hits += warm.provenance.cert_hit
        finally:
            store.close()
        assert checked.checked > 0 and hits > 0 and saved > 0


class TestBlockRecording:
    """Warm-start leaves the screen settles are collected as one block,
    and the recorder picks dual rows by row selection; the certificates
    recorded that way are exactly those of per-leaf collection and
    per-leaf packing."""

    class PerLeafLeaves(CoveringLeaves):
        """Reference collector: each block is taken apart into per-leaf
        rows and ``(lambda, mu)`` entries, packed leaf by leaf."""

        def add_block(self, rows, duals=None):
            entries = list(duals) if duals is not None and \
                len(duals) == len(rows) else [None] * len(rows)
            for row, dual in zip(rows, entries):
                self.add(row, dual)

    @staticmethod
    def per_leaf_extract(network, input_box, objective, threshold, result,
                         leaves, config=None, lp_baseline=None, duals=None):
        """Reference recorder: the stored duals packed leaf by leaf --
        each kept when its leaf is feasible and its lengths fit the node
        layout -- before the stock recorder sees them."""
        from repro.domains.batch import phase_clamped_affine_bounds

        enc = NetworkEncoding.for_problem(network, input_box)
        _, feasible, _, _ = phase_clamped_affine_bounds(
            network, input_box, leaves, objective)
        entries = list(duals) if duals is not None and \
            len(duals) == len(leaves) else [None] * len(leaves)
        sizes = enc.dual_rows()
        packed = PackedDuals.pack([
            dual if dual is not None and feasible[j] and
            (np.size(dual[0]), np.size(dual[1])) == sizes else None
            for j, dual in enumerate(entries)])
        return extract_certificate(network, input_box, objective, threshold,
                                   result, leaves, config=config,
                                   lp_baseline=lp_baseline, duals=packed)

    class Recorded(MemCerts):
        def __init__(self):
            super().__init__()
            self.puts = []

        def cert_put(self, cert_key, cert_json):
            self.puts.append(cert_json)
            super().cert_put(cert_key, cert_json)

    def _record_sequence(self, specs):
        store = self.Recorded()
        engine = VerificationEngine(VerifyConfig(certs="reuse"), certs=store)
        lp_solves = []
        for spec in specs:
            verdict = engine.verify(spec)
            lp_solves.append((verdict.provenance.cert_hit,
                              verdict.result.lp_solves))
        return store.puts, lp_solves

    def test_recorded_strings_match_a_per_leaf_reference(self,
                                                         monkeypatch):
        import repro.certs
        import repro.certs.reuse

        specs = _tuning_sequence(steps=6)
        puts, lp_solves = self._record_sequence(specs)
        # A cold record, then warm hits that settled LP-free and re-records
        # after warm starts that still needed LPs.
        assert not lp_solves[0][0] and len(puts) >= 2
        assert any(hit and lps == 0 for hit, lps in lp_solves)
        assert any(hit and lps > 0 for hit, lps in lp_solves)
        monkeypatch.setattr(repro.certs.reuse, "CoveringLeaves",
                            self.PerLeafLeaves)
        monkeypatch.setattr(repro.certs, "extract_certificate",
                            self.per_leaf_extract)
        reference, reference_lps = self._record_sequence(specs)
        assert reference_lps == lp_solves
        assert reference == puts


    def test_screen_settled_leaves_keep_their_stored_duals(self):
        """A warm re-record keeps the stored multipliers of every leaf
        the screen settled; only the leaves that paid an LP (at most one
        per LP) carry new ones.  At least one re-record of the sequence
        has more common leaves than LPs, so the bound is not vacuous."""
        store = self.Recorded()
        engine = VerificationEngine(VerifyConfig(certs="reuse"), certs=store)
        margins = []
        for spec in _tuning_sequence(steps=6):
            before = len(store.puts)
            verdict = engine.verify(spec)
            if not (verdict.provenance.cert_hit and len(store.puts) > before):
                continue
            old, new = (load_certificate(text)
                        for text in store.puts[before - 1:before + 1])
            stored = {row.tobytes(): dual for row, dual in
                      zip(old.leaves, old.leaf_duals) if dual is not None}
            common = [(row.tobytes(), dual) for row, dual in
                      zip(new.leaves, new.leaf_duals)
                      if row.tobytes() in stored]
            kept = sum(dual is not None and all(
                np.array_equal(a, b) for a, b in zip(dual, stored[key]))
                for key, dual in common)
            margin = len(common) - verdict.result.lp_solves
            assert kept >= margin
            margins.append(margin)
        assert max(margins, default=0) > 0


def _tuning_sequence(steps=4):
    """The record gate's update sequence: one threshold proof of a
    [4, 12, 8, 1] net, then of ``steps - 1`` successive perturbations."""
    net = random_relu_network([4, 12, 8, 1], seed=3)
    box = Box(-np.ones(4), np.ones(4))
    c = np.ones(1)
    opt = VerificationEngine(VerifyConfig()).verify(MaximizeSpec(
        network=net, input_box=box, objective=c)).result.upper_bound
    threshold = opt + 0.1 * abs(opt)
    rng = np.random.default_rng(7)
    specs = []
    for _step in range(steps):
        specs.append(_spec(net, box, c, threshold))
        net = net.perturb(0.002, rng=rng)
    return specs


class SameCerts:
    """A read-only provider that answers every key with one wire string
    (and drops every record)."""

    def __init__(self, cert_json):
        self.cert_json = cert_json

    def cert_get(self, cert_key):
        return self.cert_json

    def cert_put(self, cert_key, cert_json):
        pass


@pytest.fixture
def cert_calls(monkeypatch):
    """Counts ``load_certificate``/``validate_certificate`` calls the
    engine makes, and the ``CertificateError`` each of them raised."""
    import repro.certs

    calls = {"load": 0, "validate": 0, "load_errors": 0,
             "validate_errors": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except CertificateError:
                calls[f"{name}_errors"] += 1
                raise
        return wrapper

    monkeypatch.setattr(repro.certs, "load_certificate",
                        counted("load", repro.certs.load_certificate))
    monkeypatch.setattr(repro.certs, "validate_certificate",
                        counted("validate",
                                repro.certs.validate_certificate))
    return calls


@pytest.fixture
def cover_calls(monkeypatch):
    """Counts the covering checks validation runs, and how many failed."""
    import repro.certs.certificate as certificate_module

    calls = {"count": 0, "false": 0}
    check = certificate_module.leaves_cover

    def counted(leaves):
        calls["count"] += 1
        verdict = check(leaves)
        calls["false"] += not verdict
        return verdict

    monkeypatch.setattr(certificate_module, "leaves_cover", counted)
    return calls


def _cold(spec):
    return VerificationEngine(VerifyConfig()).verify(spec)


class TestCertificateMemo:
    """The engine's decoded-certificate memo: a hit skips the parse and,
    through the covering verdict kept on the decoded certificate, the
    cover check.  Every other validation check and the re-screen still
    run, a changed string is decoded afresh, and the decisions, verdicts
    and recorded certificates are those of an engine without it."""

    def test_hit_skips_load_but_still_validates(self, threshold_problem,
                                                cert_calls):
        net, box, c, thr = threshold_problem
        provider = SameCerts(_record(threshold_problem, MemCerts()))
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=provider)
        rng = np.random.default_rng(11)
        for step in range(3):
            spec = _spec(net.perturb(0.002, rng=rng), box, c, thr)
            warm = engine.verify(spec)
            assert warm.provenance.cert_hit is True
            assert verdict_decision_json(warm) == \
                verdict_decision_json(_cold(spec))
            assert cert_calls["load"] == 1
            assert cert_calls["validate"] == step + 1

    @pytest.mark.parametrize("other", ["threshold", "network"])
    def test_remembered_certificate_asked_elsewhere_runs_cold(
            self, threshold_problem, cert_calls, other):
        net, box, c, thr = threshold_problem
        cert_json = _record(threshold_problem, MemCerts())
        if other == "threshold":
            spec = _spec(net, box, c, thr + 1.0)
        else:
            spec = _spec(random_relu_network([3, 9, 6, 1], seed=5),
                         box, c, thr)
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=SameCerts(cert_json))
        assert engine.verify(_spec(net, box, c, thr)).provenance.cert_hit
        fresh = VerificationEngine(VerifyConfig(certs="reuse"),
                                   certs=SameCerts(cert_json)).verify(spec)
        loads = cert_calls["load"]
        for _ in range(2):
            verdict = engine.verify(spec)
            assert verdict.provenance.cert_hit is False
            assert canonical_verdict_json(verdict) == \
                canonical_verdict_json(fresh)
            assert verdict_decision_json(verdict) == \
                verdict_decision_json(_cold(spec))
        # The first ask decoded under the new key; the second hit the
        # memo, and validation rejected the certificate both times.
        assert cert_calls["load"] == loads + 1
        assert cert_calls["validate_errors"] == 3

    def test_one_byte_change_misses_and_runs_cold(self, threshold_problem,
                                                  cert_calls):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=store)
        spec = _spec(net, box, c, thr)
        assert engine.verify(spec).provenance.cert_hit is False
        assert engine.verify(spec).provenance.cert_hit is True
        key, cert_json = next(iter(store.entries.items()))
        assert (cert_calls["load"], cert_calls["load_errors"]) == (1, 0)
        store.entries[key] = "[" + cert_json[1:]
        verdict = engine.verify(spec)
        assert (cert_calls["load"], cert_calls["load_errors"]) == (2, 1)
        assert verdict.provenance.cert_hit is False
        assert verdict_decision_json(verdict) == \
            verdict_decision_json(_cold(spec))

    def test_long_lived_engine_matches_fresh_engines(self, cert_calls):
        from repro.api.engine import CERT_MEMO_SIZE
        from repro.serve import JobStore

        stores = JobStore(), JobStore()
        config = VerifyConfig(certs="reuse")
        long_lived = VerificationEngine(config, certs=stores[0])
        loads = {}
        try:
            for spec in _tuning_sequence(steps=6):
                key = certificate_key(spec.network, spec.input_box,
                                      spec.objective, spec.threshold,
                                      config)
                before = cert_calls["load"]
                kept = long_lived.verify(spec)
                loads["long_lived"] = loads.get("long_lived", 0) + \
                    cert_calls["load"] - before
                before = cert_calls["load"]
                fresh = VerificationEngine(config,
                                           certs=stores[1]).verify(spec)
                loads["fresh"] = loads.get("fresh", 0) + \
                    cert_calls["load"] - before
                assert verdict_decision_json(kept) == \
                    verdict_decision_json(fresh)
                assert canonical_verdict_json(kept) == \
                    canonical_verdict_json(fresh)
                assert kept.result.lp_solves == fresh.result.lp_solves
                assert stores[0].cert_get(key) == stores[1].cert_get(key)
            memo = dict(long_lived._cert_memo)
            assert 0 < len(memo) <= CERT_MEMO_SIZE
            for key, (cert_json, cert) in memo.items():
                assert certificate_to_json(cert) == cert_json
            # The sequence has updates that settle without re-recording,
            # so the long-lived engine decoded strictly fewer strings.
            assert loads["long_lived"] < loads["fresh"]
        finally:
            for store in stores:
                store.close()

    def test_submit_shares_the_memo_across_pool_threads(
            self, threshold_problem, cert_calls):
        net, box, c, thr = threshold_problem
        provider = SameCerts(_record(threshold_problem, MemCerts(),
                                     workers=2))
        engine = VerificationEngine(VerifyConfig(certs="reuse", workers=2),
                                    certs=provider)
        rng = np.random.default_rng(5)
        specs = [_spec(net.perturb(0.002, rng=rng), box, c, thr)
                 for _ in range(4)]
        verdicts = engine.submit(specs)
        assert all(v.provenance.cert_hit for v in verdicts)
        for spec, verdict in zip(specs, verdicts):
            assert verdict_decision_json(verdict) == \
                verdict_decision_json(_cold(spec))
        assert len(engine._cert_memo) == 1
        assert cert_calls["validate"] == len(specs)

    def test_concurrent_decodes_keep_the_memo_consistent(
            self, threshold_problem, monkeypatch):
        """More threads than cores, a short switch interval, two keys
        more than the cap and two spellings of one certificate per key
        (every other lookup misses and replaces): every lookup returns
        the certificate of the string it asked about, and the memo stays
        within its cap with consistent entries."""
        import sys
        import threading

        import repro.api.engine

        monkeypatch.setattr(repro.api.engine, "CERT_MEMO_SIZE", 2)
        cert_json = _record(threshold_problem, MemCerts())
        spellings = (cert_json, json.dumps(json.loads(cert_json), indent=1))
        engine = VerificationEngine(VerifyConfig(certs="reuse"))
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(200):
                    text = spellings[int(rng.integers(2))]
                    cert = engine._decode_certificate(
                        f"key{int(rng.integers(4))}", text)
                    if certificate_to_json(cert) != cert_json:
                        errors.append("decoded the wrong certificate")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        memo = engine._cert_memo
        assert len(memo) <= 2
        for text, cert in memo.values():
            assert text in spellings
            assert certificate_to_json(cert) == cert_json

    def test_hit_skips_the_cover_check_but_not_the_problem_checks(
            self, threshold_problem, cert_calls, cover_calls):
        net, box, c, thr = threshold_problem
        cert_json = _record(threshold_problem, MemCerts())
        config = VerifyConfig(certs="reuse")
        engine = VerificationEngine(config, certs=SameCerts(cert_json))
        rng = np.random.default_rng(3)
        for step in range(3):
            spec = _spec(net.perturb(0.002, rng=rng), box, c, thr)
            assert engine.verify(spec).provenance.cert_hit is True
            # Only the first use decodes and checks the cover.
            assert (cert_calls["load"], cover_calls["count"]) == (1, 1)
        key = certificate_key(net, box, c, thr, config)
        stored = engine._cert_memo[key][1]
        # The remembered certificate asked about another problem: every
        # check but the cover check still runs and rejects it.
        other_config = VerifyConfig(certs="reuse", tol=1e-7)
        for spec, cfg, reason in (
                (_spec(net, box, c, thr + 1.0), config, "threshold"),
                (_spec(net, box, c, thr), other_config, "config"),
                (_spec(random_relu_network([3, 9, 6, 1], seed=5), box, c,
                       thr), config, "fingerprint")):
            with pytest.raises(CertificateError, match=reason):
                validate_certificate(stored, spec.network, spec.objective,
                                     spec.threshold, cfg)
            for _ in range(2):  # a fresh decode, then a memo hit
                verdict = engine.verify(spec, config=cfg)
                assert verdict.provenance.cert_hit is False
                assert verdict_decision_json(verdict) == \
                    verdict_decision_json(_cold(spec))
        assert cover_calls["count"] == 1

    def test_string_edited_to_leave_a_gap_misses_and_is_rejected(
            self, threshold_problem, cert_calls, cover_calls):
        net, box, c, thr = threshold_problem
        store = MemCerts()
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=store)
        spec = _spec(net, box, c, thr)
        assert engine.verify(spec).provenance.cert_hit is False
        assert engine.verify(spec).provenance.cert_hit is True
        key, cert_json = next(iter(store.entries.items()))
        cert = load_certificate(cert_json)
        assert len(cert.leaves) >= 2
        cert.leaves = cert.leaves[1:]
        cert.leaf_duals = cert.leaf_duals.take(slice(1, None))
        store.entries[key] = certificate_to_json(cert)
        loads, covers = cert_calls["load"], cover_calls["count"]
        verdict = engine.verify(spec)
        assert cert_calls["load"] == loads + 1
        assert cover_calls["count"] == covers + 1
        assert cover_calls["false"] == 1
        assert verdict.provenance.cert_hit is False
        assert verdict_decision_json(verdict) == \
            verdict_decision_json(_cold(spec))

    def test_writeable_leaves_never_cache_the_cover(self, threshold_problem,
                                                    cover_calls):
        net, _box, c, thr = threshold_problem
        cert = load_certificate(_record(threshold_problem, MemCerts()))
        assert len(cert.leaves) >= 2
        decoded = cert.leaves
        owned = np.array(decoded)
        owned.setflags(write=False)  # read-only, but could be made writeable
        for leaves in (np.array(decoded), owned):
            cert.leaves = leaves
            for _ in range(2):
                validate_certificate(cert, net, c, thr, VerifyConfig())
            assert cert._cover is None
        assert cover_calls["count"] == 4
        # Mutated in place, a writeable matrix is judged afresh: the
        # first leaf now repeats the second, which leaves a gap.
        cert.leaves = np.array(decoded)
        validate_certificate(cert, net, c, thr, VerifyConfig())
        cert.leaves[0] = cert.leaves[1]
        with pytest.raises(CertificateError, match="partition"):
            validate_certificate(cert, net, c, thr, VerifyConfig())
        # The decoded matrix is a read-only view of bytes: cached once.
        cert.leaves = decoded
        for _ in range(2):
            validate_certificate(cert, net, c, thr, VerifyConfig())
        assert cover_calls["count"] == 7
        assert cert._cover == (decoded, True)

    def test_shared_certificate_covers_under_threads(self,
                                                     threshold_problem):
        """More threads than cores and a short switch interval: while one
        thread swaps a shared certificate's leaves between a covering and
        a gapped immutable matrix, threads asking for its covering verdict
        never find a verdict kept with a matrix it does not belong to, and
        get the covering matrix's verdict once the swaps stop."""
        import sys
        import threading

        from repro.certs import leaves_cover

        cert = load_certificate(_record(threshold_problem, MemCerts()))
        good = cert.leaves
        gapped = good[1:]
        assert leaves_cover(good) and not leaves_cover(gapped)
        errors = []
        stop = threading.Event()

        def swapper():
            for j in range(400):
                cert.leaves = gapped if j % 2 else good
            cert.leaves = good
            stop.set()

        def asker():
            while not stop.is_set():
                cert.covers()
                memo = cert._cover
                if memo is not None and memo[1] != leaves_cover(memo[0]):
                    errors.append("kept a verdict of another matrix")
            if cert.covers() is not True:
                errors.append("wrong verdict once the swaps stopped")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=asker) for _ in range(6)]
            threads.append(threading.Thread(target=swapper))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cert._cover == (good, True)

    def test_memo_never_exceeds_its_cap(self, threshold_problem,
                                        monkeypatch):
        import repro.api.engine

        monkeypatch.setattr(repro.api.engine, "CERT_MEMO_SIZE", 2)
        net, box, c, thr = threshold_problem
        cert_json = _record(threshold_problem, MemCerts())
        engine = VerificationEngine(VerifyConfig(certs="reuse"),
                                    certs=SameCerts(cert_json))
        config = VerifyConfig(certs="reuse")
        keys = []
        for shift in (0.0, 1.0, 2.0, 3.0):
            spec = _spec(net, box, c, thr + shift)
            engine.verify(spec)
            keys.append(certificate_key(net, box, c, thr + shift, config))
            assert len(engine._cert_memo) <= 2
        # Least recently used out: the last two keys remain.
        assert list(engine._cert_memo) == keys[-2:]
