"""Tests for problem statements and proof artifacts (incl. persistence)."""

import numpy as np
import pytest

from repro.api import VerificationEngine
from repro.domains import Box
from repro.errors import ArtifactError, DomainError, ShapeError
from repro.nn import random_relu_network
from repro.core import (
    LipschitzCertificate,
    ProofArtifacts,
    SVbTV,
    SVuDC,
    StateAbstractions,
    VerificationProblem,
    load_artifacts,
    save_artifacts,
)


@pytest.fixture
def problem(deep_scalar_net, nonneg_box4):
    from repro.domains.propagate import inductive_states

    sn = inductive_states(deep_scalar_net, nonneg_box4, 0.02)[-1]
    return VerificationProblem(deep_scalar_net, nonneg_box4,
                               sn.inflate(0.2 * sn.widths.max() + 0.1))


class TestProblemStatements:
    def test_dim_checks(self, deep_scalar_net):
        with pytest.raises(ShapeError):
            VerificationProblem(deep_scalar_net, Box(np.zeros(3), np.ones(3)),
                                Box(np.zeros(1), np.ones(1)))
        with pytest.raises(ShapeError):
            VerificationProblem(deep_scalar_net, Box(np.zeros(4), np.ones(4)),
                                Box(np.zeros(2), np.ones(2)))

    def test_sample_check_finds_violation(self, deep_scalar_net, nonneg_box4):
        tiny = Box(np.array([0.0]), np.array([1e-9]))
        problem = VerificationProblem(deep_scalar_net, nonneg_box4, tiny)
        cex = problem.sample_check(200, np.random.default_rng(0))
        assert cex is not None
        assert not tiny.contains_point(deep_scalar_net.forward(cex))

    def test_sample_check_none_when_safe(self, problem):
        assert problem.sample_check(200, np.random.default_rng(0)) is None

    def test_svudc_requires_containment(self, problem):
        with pytest.raises(DomainError):
            SVuDC(problem, Box(np.zeros(4), 0.5 * np.ones(4)))

    def test_svudc_new_problem(self, problem):
        enlarged = problem.din.inflate(0.1)
        svudc = SVuDC(problem, enlarged)
        assert svudc.new_problem.din == enlarged

    def test_svbtv_structure_check(self, problem):
        other = random_relu_network([4, 10, 1], seed=0)
        with pytest.raises(ShapeError):
            SVbTV(problem, other)

    def test_svbtv_effective_din(self, problem):
        tuned = problem.network.perturb(0.001, np.random.default_rng(0))
        assert SVbTV(problem, tuned).effective_din == problem.din
        enlarged = problem.din.inflate(0.1)
        assert SVbTV(problem, tuned, enlarged).effective_din == enlarged


class TestArtifacts:
    def test_state_abstraction_accessors(self, problem):
        base = VerificationEngine().baseline(problem, rigor="abstract").result
        states = base.artifacts.require_states()
        assert states.num_layers == problem.network.num_blocks
        assert states.matches(problem.network)
        assert states.output_abstraction == states.layer(states.num_layers - 1)

    def test_lipschitz_certificate_validation(self):
        with pytest.raises(ArtifactError):
            LipschitzCertificate(ell=-1.0)
        cert = LipschitzCertificate(ell=10.0)
        assert cert.output_change_bound(0.5) == 5.0
        with pytest.raises(ArtifactError):
            cert.output_change_bound(-0.1)

    def test_missing_artifacts_raise(self, problem):
        artifacts = ProofArtifacts(problem=problem)
        with pytest.raises(ArtifactError):
            artifacts.require_states()
        with pytest.raises(ArtifactError):
            artifacts.require_lipschitz()
        with pytest.raises(ArtifactError):
            artifacts.require_network_abstraction()

    def test_states_mismatch_detected(self, problem):
        bad = StateAbstractions(boxes=[Box(np.zeros(3), np.ones(3))])
        artifacts = ProofArtifacts(problem=problem, states=bad)
        with pytest.raises(ArtifactError):
            artifacts.require_states()

    def test_tightest_output_abstraction_prefers_range(self, problem):
        base = VerificationEngine().baseline(problem, rigor="range").result
        tight = base.artifacts.tightest_output_abstraction()
        loose = base.artifacts.states.output_abstraction
        assert loose.contains_box(tight)


class TestPersistence:
    def test_roundtrip_full(self, problem, tmp_path):
        base = VerificationEngine().baseline(
            problem, rigor="range", with_network_abstraction=True,
            netabs_groups=2, netabs_margin=0.05).result
        path = tmp_path / "artifacts.npz"
        save_artifacts(base.artifacts, path)
        loaded = load_artifacts(path)
        assert loaded.states_prove_safety == base.artifacts.states_prove_safety
        assert loaded.original_time == pytest.approx(base.artifacts.original_time)
        assert loaded.lipschitz.ell == pytest.approx(base.artifacts.lipschitz.ell)
        for a, b in zip(loaded.states.boxes, base.artifacts.states.boxes):
            assert a == b
        assert loaded.output_range == base.artifacts.output_range
        assert loaded.network_abstraction is not None
        assert loaded.network_abstraction.margin == pytest.approx(0.05)
        # The reloaded problem is functionally identical.
        x = problem.din.sample(5, np.random.default_rng(0))
        np.testing.assert_array_equal(
            loaded.problem.network.forward(x), problem.network.forward(x))

    def test_roundtrip_minimal(self, problem, tmp_path):
        base = VerificationEngine().baseline(problem, rigor="abstract").result
        base.artifacts.network_abstraction = None
        path = tmp_path / "min.npz"
        save_artifacts(base.artifacts, path)
        loaded = load_artifacts(path)
        assert loaded.network_abstraction is None
        assert loaded.states is not None

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, junk=np.zeros(2))
        with pytest.raises(ArtifactError):
            load_artifacts(path)


def _with_meta(src, dst, key, raw=None):
    """Copy the artifact file ``src`` to ``dst`` with metadata ``key`` set to
    the raw JSON text ``raw`` (dropped when ``raw`` is ``None``)."""
    import json

    with np.load(str(src)) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(arrays["__meta__"].tobytes().decode("utf-8"))
    meta.pop(key)
    text = json.dumps(meta)
    if raw is not None:
        text = text[:-1] + f', "{key}": {raw}}}'
    arrays["__meta__"] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    np.savez(str(dst), **arrays)


class TestStrictMetadata:
    """Ill-typed or missing metadata fails with the permanent
    :class:`ArtifactError`, never a bare cast error or a silent cast."""

    @pytest.fixture
    def saved(self, problem, tmp_path):
        base = VerificationEngine().baseline(problem, rigor="abstract").result
        path = tmp_path / "ok.npz"
        save_artifacts(base.artifacts, path)
        return path

    @pytest.mark.parametrize("key, raw, field", [
        ("states_layers", "1e400", None),     # was OverflowError
        ("states_layers", "2.5", None),       # was silently truncated to 2
        ("states_layers", "true", None),
        ("original_time", '"x"', None),       # was ValueError
        ("has_states", '"false"', None),      # was truthy, hence True
        ("has_output_range", "1", None),
        ("notes", "[1]", None),
        ("lipschitz", '{"ell": "x", "ord": 2.0, "method": "m"}', "ell"),
    ])
    def test_ill_typed_field_is_artifact_error(self, saved, tmp_path,
                                               key, raw, field):
        bad = tmp_path / "bad.npz"
        _with_meta(saved, bad, key, raw)
        with pytest.raises(ArtifactError, match=field or key):
            load_artifacts(bad)

    @pytest.mark.parametrize("key", ["original_time", "states_layers",
                                     "has_lipschitz"])
    def test_missing_field_is_artifact_error(self, saved, tmp_path, key):
        bad = tmp_path / "bad.npz"
        _with_meta(saved, bad, key)
        with pytest.raises(ArtifactError, match=key):
            load_artifacts(bad)

    @pytest.mark.parametrize("name, write", [
        # was numpy's bare ValueError ("pickled (object) data")
        ("artifacts.py", lambda p: p.write_text("import numpy\n")),
        ("empty.npz", lambda p: p.write_bytes(b"")),    # was EOFError
        ("bare.npy", lambda p: np.save(p, np.zeros(3))),
    ], ids=["python-file", "empty-file", "npy-array"])
    def test_file_that_is_not_an_archive(self, tmp_path, name, write):
        path = tmp_path / name
        write(path)
        with pytest.raises(ArtifactError, match="not an artifact file"):
            load_artifacts(path)

    def test_corrupt_network_blob(self, saved, tmp_path):
        with np.load(str(saved)) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["network"] = np.zeros(10, dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(str(bad), **arrays)
        with pytest.raises(ArtifactError, match="network"):
            load_artifacts(bad)

    def test_layer_count_beyond_stored_arrays(self, saved, tmp_path):
        bad = tmp_path / "bad.npz"
        _with_meta(saved, bad, "states_layers", "99")
        with pytest.raises(ArtifactError, match="state"):
            load_artifacts(bad)
