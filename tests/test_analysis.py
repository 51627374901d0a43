"""The static-analysis engine and its rule catalogue.

Every rule is exercised three ways -- a true positive, a true negative,
and an inline suppression -- against small in-memory fixture modules
whose *virtual* dotted names put them inside each rule's scope.  The
lock-discipline checker additionally runs against an on-disk fixture
distilling the PR-7 ShardRouter race, and the whole suite closes with
the acceptance gate: ``repro lint`` over the real ``src/repro`` tree is
clean.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    UNUSED_SUPPRESSION,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.core import ModuleContext, module_name_for
from repro.analysis.rules import ALL_RULES
from repro.cli import main as cli_main
from repro.errors import AnalysisError

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"


def lint(source: str, module: str, rule: str, *, with_suppression_check=False):
    """Findings of one rule over one in-memory fixture module."""
    select = [rule] + ([UNUSED_SUPPRESSION] if with_suppression_check else [])
    return lint_source(textwrap.dedent(source), module=module,
                       select=select).findings


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# Rule fixtures: (rule, module, positive, negative, suppressed)
# The suppressed variant is the positive with an inline disable comment on
# the offending line; it must lint clean under the same rule.
# ---------------------------------------------------------------------------

CASES = [
    (
        "no-restated-defaults", "repro.exact.fixture",
        """
        def solve(problem, workers: int = 1, tol: float = 1e-6):
            return problem
        """,
        """
        from repro.api.config import DEFAULT_TOL, DEFAULT_WORKERS

        def solve(problem, workers: int = DEFAULT_WORKERS,
                  tol: float = DEFAULT_TOL, method: str = "symbolic"):
            # method="symbolic" is a deliberate override of the canonical
            # "exact", not a restated default -- must stay legal.
            return problem
        """,
        """
        def solve(problem, workers: int = 1):  # repro: disable=no-restated-defaults
            return problem
        """,
    ),
    (
        "wire-discipline", "repro.serve.fixture",
        """
        class BadExecutor:
            def execute(self, spec, config_json, timeout=None):
                return {}

        def run(executor, spec_obj, config_json):
            return executor.execute(spec_obj, config_json)
        """,
        """
        class GoodExecutor:
            def execute(self, spec_json, config_json, timeout=None):
                return {}

        def run(executor, spec, config):
            spec_json = spec.to_json()
            return executor.execute(spec_json, config.to_json(), timeout=3)
        """,
        """
        class BadExecutor:
            def execute(self, spec, config_json, timeout=None):  # repro: disable=wire-discipline
                return {}

        def run(executor, spec_obj, config_json):
            return executor.execute(spec_obj, config_json)  # repro: disable=wire-discipline
        """,
    ),
    (
        "wire-scalars", "repro.api.fixture",
        """
        def spec_from_dict(data):
            return Spec(threshold=data["threshold"],
                        minimize=data.get("minimize", False))
        """,
        """
        from repro.api.serialize import FLOAT, Field, Record

        SPEC = Record("spec", Spec, Field("threshold", FLOAT))

        def spec_from_dict(data):
            data["seen"] = True  # a write, not a read
            return SPEC.decode(data), config["tol"]
        """,
        """
        def spec_from_dict(data):
            return Spec(threshold=data["threshold"],  # repro: disable=wire-scalars
                        minimize=data.get("minimize", False))  # repro: disable=wire-scalars
        """,
    ),
    (
        "determinism", "repro.exact.fixture",
        """
        import time

        def stamp(verdict):
            verdict["at"] = time.time()
            for branch in {"upper", "lower"}:
                verdict[branch] = 0.0
            return verdict
        """,
        """
        import time
        import numpy as np

        def stamp(verdict, seed):
            t0 = time.monotonic()
            rng = np.random.default_rng(seed)
            for branch in ("upper", "lower"):
                verdict[branch] = float(rng.uniform())
            verdict["elapsed"] = time.monotonic() - t0
            return verdict

        class Key:
            def __hash__(self):
                return hash(("key", 1))
        """,
        """
        import time

        def stamp(verdict):
            verdict["at"] = time.time()  # repro: disable=determinism
            for branch in {"upper", "lower"}:  # repro: disable=determinism
                verdict[branch] = 0.0
            return verdict
        """,
    ),
    (
        "lock-discipline", "repro.serve.fixture",
        """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._workers = {}  # guarded-by: self._lock

            def get(self, url):
                return self._workers.get(url)
        """,
        """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._workers = {}  # guarded-by: self._lock

            def get(self, url):
                with self._lock:
                    return self._workers.get(url)
        """,
        """
        import threading

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._workers = {}  # guarded-by: self._lock

            def get(self, url):
                return self._workers.get(url)  # repro: disable=lock-discipline
        """,
    ),
    (
        "float64-soundness", "repro.exact.fixture",
        """
        import numpy as np

        def bound(values):
            return np.asarray(values, dtype=np.float32).max()
        """,
        """
        import numpy as np

        def bound(values):
            return np.asarray(values, dtype=np.float64).max()
        """,
        """
        import numpy as np

        def bound(values):
            return np.asarray(values, dtype=np.float32).max()  # repro: disable=float64-soundness
        """,
    ),
    (
        "no-swallowed-taxonomy", "repro.serve.fixture",
        """
        def probe(client):
            try:
                return client.health()
            except Exception:
                pass
        """,
        """
        def probe(client, registry):
            try:
                return client.health()
            except OSError:
                pass  # narrow catch: a decision, not amnesia
            except Exception as exc:
                registry.note_probe(ok=False, error=str(exc))
        """,
        """
        def probe(client):
            try:
                return client.health()
            except Exception:  # repro: disable=no-swallowed-taxonomy
                pass
        """,
    ),
    (
        "store-discipline", "repro.serve.fixture",
        """
        import sqlite3

        def peek(conn):
            return conn.execute("SELECT COUNT(*) FROM jobs").fetchone()
        """,
        """
        def peek(store, executor, spec_json, config_json):
            executor.execute(spec_json, config_json)
            return store.counts()
        """,
        """
        import sqlite3  # repro: disable=store-discipline

        def peek(conn):
            return conn.execute("SELECT 1").fetchone()  # repro: disable=store-discipline
        """,
    ),
    (
        "cert-discipline", "repro.certs.fixture",
        """
        import pickle

        def record(store, key, cert):
            store.cert_put(key, cert)
        """,
        """
        from repro.api.serialize import certificate_to_json

        def record(store, key, cert):
            store.cert_put(key, certificate_to_json(cert))

        def fetch(store, key):
            cert_json = store.cert_get(key)
            return cert_json
        """,
        """
        import pickle  # repro: disable=cert-discipline

        def record(store, key, cert):
            store.cert_put(key, cert)  # repro: disable=cert-discipline
        """,
    ),
]


class TestRuleFixtures:
    @pytest.mark.parametrize("rule,module,positive,_n,_s",
                             CASES, ids=[c[0] for c in CASES])
    def test_true_positive(self, rule, module, positive, _n, _s):
        findings = lint(positive, module, rule)
        assert findings, f"{rule}: positive fixture produced no findings"
        assert rules_of(findings) == [rule]

    @pytest.mark.parametrize("rule,module,_p,negative,_s",
                             CASES, ids=[c[0] for c in CASES])
    def test_true_negative(self, rule, module, _p, negative, _s):
        findings = lint(negative, module, rule)
        assert findings == [], f"{rule}: false positives: {findings}"

    @pytest.mark.parametrize("rule,module,_p,_n,suppressed",
                             CASES, ids=[c[0] for c in CASES])
    def test_suppression(self, rule, module, _p, _n, suppressed):
        findings = lint(suppressed, module, rule,
                        with_suppression_check=True)
        assert findings == [], \
            f"{rule}: suppression did not silence: {findings}"

    @pytest.mark.parametrize("rule,module,positive,_n,_s",
                             CASES, ids=[c[0] for c in CASES])
    def test_out_of_scope_module_is_ignored(self, rule, module, positive,
                                            _n, _s):
        if rule == "lock-discipline":
            pytest.skip("annotation-driven: applies everywhere")
        findings = lint(positive, "somepkg.other", rule)
        assert findings == []


class TestScoping:
    def test_defaults_rule_exempts_config_module(self):
        source = "DEFAULT_WORKERS = 1\n\ndef f(workers: int = 1):\n    pass\n"
        assert lint(source, "repro.api.config", "no-restated-defaults") == []

    def test_store_rule_exempts_store_module(self):
        source = "import sqlite3\nconn = sqlite3.connect(':memory:')\n"
        assert lint(source, "repro.serve.store", "store-discipline") == []
        assert lint(source, "repro.serve.http", "store-discipline") != []

    def test_defaults_rule_flags_dataclass_field(self):
        source = """
        from dataclasses import dataclass

        @dataclass
        class Result:
            workers: int = 1
        """
        findings = lint(source, "repro.exact.fixture",
                        "no-restated-defaults")
        assert len(findings) == 1 and "workers" in findings[0].message


class TestLockDiscipline:
    def test_seeded_race_fixture_is_flagged(self):
        """The acceptance-criteria gate: the checker catches the distilled
        PR-7 ShardRouter race (and only its two racy lines)."""
        result = lint_paths([str(FIXTURES / "seeded_race.py")],
                            select=["lock-discipline"])
        lines = sorted(f.line for f in result.findings)
        assert lines == [27, 32], result.findings

    def test_fixed_shape_is_clean(self):
        """The shape the race was fixed to (snapshot under the lock)."""
        source = """
        import threading

        class Router:
            def __init__(self):
                self._lock = threading.Lock()
                self._backends = {}  # guarded-by: self._lock

            def pick(self, url):
                with self._lock:
                    backend = self._backends[url]
                return backend
        """
        assert lint(source, "fixture.router", "lock-discipline") == []

    def test_locked_helper_contract(self):
        source = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}  # guarded-by: self._lock

            def _evict_locked(self):
                while len(self._items) > 8:
                    self._items.popitem()

            def put_good(self, key, value):
                with self._lock:
                    self._items[key] = value
                    self._evict_locked()

            def put_bad(self, key, value):
                self._evict_locked()
        """
        findings = lint(source, "fixture.cache", "lock-discipline")
        assert len(findings) == 1
        assert "_evict_locked" in findings[0].message
        assert "put_bad" in source.splitlines()[findings[0].line - 2]

    def test_nested_function_resets_held_locks(self):
        """A closure handed to a pool runs on another thread: the
        enclosing ``with self._lock`` must not leak into it."""
        source = """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._stats = {}  # guarded-by: self._lock

            def kick(self, pool):
                with self._lock:
                    def task():
                        return self._stats.copy()
                    pool.submit(task)
        """
        findings = lint(source, "fixture.pool", "lock-discipline")
        assert len(findings) == 1 and "_stats" in findings[0].message

    def test_module_global_guard(self):
        source = """
        import threading

        _LOCK = threading.Lock()
        _COUNT = 0  # guarded-by: _LOCK


        def bump_good():
            global _COUNT
            with _LOCK:
                _COUNT += 1


        def bump_bad():
            global _COUNT
            _COUNT += 1
        """
        findings = lint(source, "fixture.counters", "lock-discipline")
        assert len(findings) == 1 and "_COUNT" in findings[0].message

    def test_init_is_exempt(self):
        source = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._data = {}  # guarded-by: self._lock
                self._data["warm"] = True
        """
        assert lint(source, "fixture.box", "lock-discipline") == []


class TestSuppressions:
    def test_unused_suppression_is_flagged(self):
        source = "x = 1  # repro: disable=determinism\n"
        findings = lint_source(source, module="repro.exact.fixture").findings
        assert rules_of(findings) == [UNUSED_SUPPRESSION]
        assert "silences nothing" in findings[0].message

    def test_unknown_rule_in_suppression_is_flagged(self):
        source = "x = 1  # repro: disable=no-such-rule\n"
        findings = lint_source(source, module="repro.exact.fixture").findings
        assert rules_of(findings) == [UNUSED_SUPPRESSION]
        assert "unknown rule" in findings[0].message

    def test_multi_rule_suppression(self):
        # Two rules fire on one line; one comma-separated comment
        # silences both, and both suppressions count as used.
        source = ("import time\n"
                  "def f(workers: int = 1): return time.time()"
                  "  # repro: disable=determinism,no-restated-defaults\n")
        findings = lint_source(source, module="repro.exact.fixture").findings
        assert findings == []

    def test_each_suppressed_rule_must_earn_its_keep(self):
        # The named rule fires on a *different* line: silenced nothing
        # here, so the stale half of the comment is itself flagged.
        source = ("import time\n"
                  "def f(workers: int = 1):\n"
                  "    return time.time()"
                  "  # repro: disable=determinism,no-restated-defaults\n")
        findings = lint_source(source, module="repro.exact.fixture").findings
        assert rules_of(findings) == ["no-restated-defaults",
                                      UNUSED_SUPPRESSION]

    def test_suppression_only_covers_its_line(self):
        source = ("import time\n"
                  "a = time.time()  # repro: disable=determinism\n"
                  "b = time.time()\n")
        findings = lint(source, "repro.exact.fixture", "determinism")
        assert [f.line for f in findings] == [3]


class TestEngine:
    def test_unknown_rule_name_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            lint_source("x = 1\n", module="m", select=["bogus"])

    def test_syntax_error_raises(self):
        with pytest.raises(AnalysisError, match="cannot parse"):
            lint_source("def f(:\n", module="m")

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError, match="no such path"):
            lint_paths(["tests/definitely_not_here_xyz"])

    def test_ignore_filters_rule(self):
        source = "def f(workers: int = 1):\n    pass\n"
        clean = lint_source(source, module="repro.exact.fixture",
                            ignore=["no-restated-defaults"])
        assert clean.findings == []

    def test_findings_sorted_and_serializable(self):
        source = ("import time\n"
                  "b = time.time()\n"
                  "a = time.time()\n")
        result = lint_source(source, module="repro.exact.fixture",
                             select=["determinism"])
        assert [f.line for f in result.findings] == [2, 3]
        doc = json.loads(render_json(result))
        assert doc["version"] == 1
        assert doc["counts"] == {"determinism": 2}
        assert len(doc["findings"]) == 2
        assert set(doc["findings"][0]) == {"rule", "path", "line", "col",
                                           "message"}

    def test_text_reporter(self):
        result = lint_source("import time\nx = time.time()\n",
                             module="repro.exact.fixture",
                             select=["determinism"])
        text = render_text(result)
        assert "<memory>:2:" in text and "determinism" in text
        clean = lint_source("x = 1\n", module="repro.exact.fixture")
        assert "clean" in render_text(clean)

    def test_import_resolution(self):
        ctx = ModuleContext(
            "import numpy as np\n"
            "from repro.exact import verify as v\n"
            "from . import sibling\n",
            module="repro.core.fixture")
        assert ctx.imports["np"] == "numpy"
        assert ctx.imports["v"] == "repro.exact.verify"
        assert ctx.imports["sibling"] == "repro.core.sibling"

    def test_module_name_for_real_tree(self):
        assert module_name_for(
            REPO / "src" / "repro" / "serve" / "store.py") \
            == "repro.serve.store"
        assert module_name_for(
            REPO / "src" / "repro" / "analysis" / "__init__.py") \
            == "repro.analysis"

    def test_finding_render(self):
        finding = Finding(rule="r", path="p.py", line=3, col=7,
                          message="msg")
        assert finding.render() == "p.py:3:7: r: msg"


class TestCli:
    def test_lint_clean_file_exits_zero(self, capsys):
        assert cli_main(["lint",
                         str(REPO / "src" / "repro" / "errors.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_racy_fixture_exits_one_with_json(self, capsys):
        code = cli_main(["lint", str(FIXTURES / "seeded_race.py"),
                         "--json", "--select", "lock-discipline"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"lock-discipline": 2}

    def test_lint_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.name in out

    def test_lint_unknown_rule_exits_two(self, capsys):
        assert cli_main(["lint", "--select", "nope",
                         str(FIXTURES / "seeded_race.py")]) == 2


class TestTreeIsClean:
    def test_repro_lint_src_is_clean(self):
        """The acceptance gate, self-enforced from tier-1: every rule over
        the whole library tree, zero findings."""
        result = lint_paths([str(REPO / "src" / "repro")])
        assert len(result.rules_run) >= 8
        assert result.clean, "\n" + render_text(result)
