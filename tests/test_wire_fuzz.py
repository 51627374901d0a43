"""Fuzzing the wire codec from its own tables.

Valid documents of every kind are walked field by field along the codec's
tables (:mod:`repro.api.serialize`), and hypothesis replaces, drops or
adds one field at a time -- with values of the field's own kind and of
every other JSON shape.  Whatever comes out of a decoder is a decoded
object that re-encodes, or a permanent
:class:`~repro.errors.SerializationError`: never a bare ``TypeError``/
``KeyError``/``AttributeError``, and over HTTP never a 500 or a dropped
connection.
"""

import http.client
import json
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    MaximizeSpec,
    PropositionSpec,
    ThresholdSpec,
    VerificationEngine,
    VerifyConfig,
    certificate_from_json,
    certificate_to_json,
    config_from_json,
    config_to_json,
    verdict_from_json,
    verdict_to_json,
)
from repro.api.serialize import (
    CERTIFICATE,
    CONFIG,
    VERDICT,
    Leaf,
    ListOf,
    MapOf,
    Nullable,
    OneOf,
    Record,
    Scalar,
    Tagged,
)
from repro.api.specs import SPEC, spec_from_json, spec_to_dict, spec_to_json
from repro.core import VerificationProblem
from repro.domains import Box
from repro.errors import SerializationError
from repro.nn import fig2_network, random_relu_network
from repro.serve import ServeClient, VerificationService, serve_http
from repro.serve.resilience import classify_failure

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _walk(kind, data, path=()):
    """Every ``(path, kind)`` of ``data`` read by ``kind``'s table."""
    if isinstance(kind, Tagged):
        record = kind.records[data[kind.key]]
        yield from _walk(record, {k: v for k, v in data.items()
                                  if k != kind.key}, path)
        return
    if isinstance(kind, Nullable):
        if data is not None:
            yield from _walk(kind.kind, data, path)
        return
    if isinstance(kind, Record):
        for field in kind.fields:
            if field.name in data:
                sub = path + (field.name,)
                yield sub, field.kind
                yield from _walk(field.kind, data[field.name], sub)
    elif isinstance(kind, ListOf):
        for i, value in enumerate(data[:3]):
            yield path + (i,), kind.kind
            yield from _walk(kind.kind, value, path + (i,))
    elif isinstance(kind, MapOf):
        for key, value in list(data.items())[:3]:
            yield path + (key,), kind.kind
            yield from _walk(kind.kind, value, path + (key,))


#: Values of every JSON shape, right and wrong for any field.
_JUNK = st.sampled_from([
    None, True, False, 0, 1, -1, 7, 2.5, -0.0, 10 ** 400, "", "x", "5",
    "inf", "nan", "false", [], [1], ["x"], [[1.0], [1.0, 2.0]], {},
    {"a": 1}, {"lower": [0.0], "upper": [1.0]},
])


def _valid_value(kind):
    """A strategy of wire values of ``kind`` itself (scalars only)."""
    if isinstance(kind, Nullable):
        return st.one_of(st.none(), _valid_value(kind.kind))
    if isinstance(kind, OneOf):
        return st.sampled_from(kind.choices).map(
            lambda c: c.replace("{n}", "3"))
    if isinstance(kind, Scalar):
        samples = [v for v in (0, 3, 1.5, "inf", True, False, None, "s")
                   if kind.check(v)]
        return st.sampled_from(samples) if samples else _JUNK
    return _JUNK


@st.composite
def _mutated(draw, kind, document):
    """``document`` with one field replaced, dropped, or joined by an
    unknown key."""
    data = json.loads(document)
    paths = list(_walk(kind, data))
    path, field_kind = draw(st.sampled_from(paths))
    *parents, key = path
    node = data
    for part in parents:
        node = node[part]
    action = draw(st.sampled_from(["valid", "junk", "drop", "extra"]))
    if action == "drop" and isinstance(node, dict):
        del node[key]
    elif action == "extra" and isinstance(node, dict):
        node["not_a_field"] = draw(_JUNK)
    elif action == "valid":
        node[key] = draw(_valid_value(field_kind))
    else:
        node[key] = draw(_JUNK)
    return json.dumps(data)


def _decodes_or_rejects(decode, encode, text):
    try:
        value = decode(text)
    except SerializationError as exc:
        assert classify_failure(exc) == ("SerializationError", False)
        return
    encode(value)  # anything that decodes must re-encode


# ----------------------------------------------------------------- corpus
def _documents():
    net = fig2_network()
    box = Box(-np.ones(2), np.ones(2))
    head = random_relu_network([2, 3, 1], seed=1)
    engine = VerificationEngine(VerifyConfig())
    baseline = engine.baseline(VerificationProblem(
        head, box, Box(-50 * np.ones(1), 50 * np.ones(1))))
    artifacts = baseline.artifacts
    specs = [
        MaximizeSpec(network=net, input_box=box, objective=np.array([1.0]),
                     threshold=6.5),
        ThresholdSpec(network=net, input_box=box, objective=np.array([1.0]),
                      threshold=6.5),
        PropositionSpec(kind=3, artifacts=artifacts,
                        enlarged_din=box.inflate(0.05)),
    ]
    verdicts = [engine.verify(spec) for spec in specs]
    return {
        "spec": [spec_to_json(spec) for spec in specs],
        "verdict": [verdict_to_json(v) for v in verdicts + [baseline]],
        "certificate": [certificate_to_json(verdicts[1].certificate)],
        "config": [config_to_json(VerifyConfig(workers=2))],
    }


@pytest.fixture(scope="module")
def documents():
    return _documents()


_CODECS = {
    "spec": (SPEC, spec_from_json, spec_to_json),
    "verdict": (VERDICT, verdict_from_json, verdict_to_json),
    "certificate": (CERTIFICATE, certificate_from_json, certificate_to_json),
    "config": (CONFIG, config_from_json, config_to_json),
}


def test_the_walk_reaches_every_kind_of_field(documents):
    kinds = {type(kind) for kind_name, (table, _, _) in _CODECS.items()
             for doc in documents[kind_name]
             for _, kind in _walk(table, json.loads(doc))}
    assert {Record, Nullable, ListOf, MapOf, Leaf, Scalar, OneOf} <= kinds


@pytest.mark.parametrize("name", sorted(_CODECS))
def test_one_mutated_field_decodes_or_is_rejected_permanently(documents,
                                                              name):
    table, decode, encode = _CODECS[name]

    @SETTINGS
    @given(data=st.data())
    def check(data):
        document = data.draw(st.sampled_from(documents[name]))
        _decodes_or_rejects(decode, encode,
                            data.draw(_mutated(table, document)))

    check()


# -------------------------------------------------------------- POST /jobs
@pytest.fixture(scope="module")
def server():
    service = VerificationService(workers=1).start()
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _post(server, body: str):
    client = ServeClient(server.url)
    conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
    try:
        conn.request("POST", "/jobs", body=body.encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_post_jobs_answers_every_mutated_spec(server):
    """``POST /jobs`` answers 201 or a 400 naming a taxonomy error for
    any one-field mutation of a valid job; an accepted job ends without
    a decode error retried in its attempt log."""
    spec = spec_to_dict(MaximizeSpec(
        network=fig2_network(), input_box=Box(-np.ones(2), np.ones(2)),
        objective=np.array([1.0])))
    job = json.dumps({"spec": spec, "config": VerifyConfig().to_dict()})
    client = ServeClient(server.url)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        body = json.loads(job)
        which = data.draw(st.sampled_from(["spec", "config"]))
        table = SPEC if which == "spec" else CONFIG
        body[which] = json.loads(data.draw(_mutated(
            table, json.dumps(body[which]))))
        status, payload = _post(server, json.dumps(body))
        assert status in (201, 400), payload
        if status == 400:
            assert payload["error"].split(":")[0] in (
                "SerializationError", "ServeError"), payload
            return
        record = client.wait(payload["job_id"], timeout=60)
        assert record["state"] in ("done", "failed")
        log = client.job(payload["job_id"])["attempt_log"]
        assert not any(a["transient"] for a in log), log

    check()
