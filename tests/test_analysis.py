"""The static-analysis subsystem: rules, waivers, baseline, reporters.

The fixture corpus under ``tests/fixtures/analysis`` reconstructs each
bug the repo actually shipped (id-keyed tracer cache, gauge shadowing,
post-key engine resolution, unlocked shared state, pool payload
violations) and pins every rule two ways: the ``bad_*`` file must be
flagged by *exactly* the intended rule, and the ``good_*`` blessed
patterns must stay clean. On top of that: suppression and baseline
round-trips, reporter schemas, and the live-tree self-check that keeps
``repro lint --strict`` green on the repo itself.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    BASELINE_SCHEMA,
    ERROR,
    REPORT_SCHEMA,
    WARNING,
    LintConfig,
    all_rules,
    get_rule,
    load_baseline,
    render_json,
    render_text,
    run_lint,
    write_baseline,
)
from repro.analysis.runner import (
    RULE_BAD_SUPPRESSION,
    RULE_PARSE_ERROR,
    RULE_UNUSED_SUPPRESSION,
)
from repro.util import IdentityMemo

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "analysis"

_META_RULES = {RULE_PARSE_ERROR, RULE_BAD_SUPPRESSION, RULE_UNUSED_SUPPRESSION}


def lint_fixture(name: str, assume_parity: bool = False):
    return run_lint([FIXTURES / name],
                    config=LintConfig(assume_parity=assume_parity))


def active_rules(result) -> set[str]:
    return {f.rule for f in result.active} - _META_RULES


# ---------------------------------------------------------------------------
# The fixture corpus: each historical bug -> exactly its rule.
# ---------------------------------------------------------------------------

CORPUS = [
    ("bad_idcache.py", {"id-keyed-cache"}, False),
    ("bad_gauge_shadow.py", {"shadowed-dict-key"}, False),
    ("bad_engine_after_key.py", {"engine-before-key"}, False),
    ("bad_unlocked_attr.py", {"lock-discipline"}, False),
    ("bad_module_global.py", {"lock-discipline"}, False),
    ("bad_cache_key.py", {"cache-key-params"}, False),
    ("bad_procboundary.py", {"process-boundary"}, False),
    ("bad_flightpayload.py", {"flight-serializable"}, False),
    ("bad_nondeterminism.py", {"parity-nondeterminism"}, True),
    ("bad_float_eq.py", {"float-eq"}, True),
    ("bad_hygiene.py", {"mutable-default", "broad-except"}, False),
    ("bad_chaospoint.py", {"chaos-point-registered"}, False),
]


@pytest.mark.parametrize("name,expected,parity", CORPUS,
                         ids=[c[0] for c in CORPUS])
def test_fixture_flagged_by_exactly_the_intended_rule(name, expected, parity):
    result = lint_fixture(name, assume_parity=parity)
    assert active_rules(result) == expected


def test_gauge_shadow_fixture_catches_both_shapes():
    # The subscript re-write and the duplicate dict-literal key.
    result = lint_fixture("bad_gauge_shadow.py")
    assert len(result.active) == 2


def test_procboundary_fixture_flags_every_payload_shape():
    result = lint_fixture("bad_procboundary.py")
    messages = " ".join(f.message for f in result.active)
    for shape in ("lambda", "generator", "closure", "open file handle"):
        assert shape in messages


def test_thread_executor_submit_is_not_a_process_boundary(tmp_path):
    """A closure submitted to a ``ThreadPoolExecutor`` stays in-process
    (nothing is pickled), whether the executor is bound by ``with`` or
    by assignment."""
    source = textwrap.dedent("""\
        from concurrent.futures import ThreadPoolExecutor

        def record(items):
            def lane(first):
                return items[first::2]
            with ThreadPoolExecutor(max_workers=1) as pool:
                other = pool.submit(lane, 1)
            executor_pool = ThreadPoolExecutor(max_workers=1)
            executor_pool.submit(lambda: lane(0))
            return other.result()
        """)
    result = _lint_source(tmp_path, source)
    assert [f for f in result.findings if f.rule == "process-boundary"] == []


def test_lambda_to_a_worker_pool_is_still_flagged(tmp_path):
    source = textwrap.dedent("""\
        from repro.pool import WorkerPool

        def fan_out(items):
            pool = WorkerPool(workers=2)
            return pool.submit(lambda: sum(items))
        """)
    result = _lint_source(tmp_path, source)
    (finding,) = [f for f in result.active if f.rule == "process-boundary"]
    assert "lambda" in finding.message


def test_flightpayload_fixture_flags_every_shape():
    result = lint_fixture("bad_flightpayload.py")
    messages = " ".join(f.message for f in result.active)
    for shape in ("lambda", "comprehension", "set literal", "bytes",
                  "set()", "open file handle"):
        assert shape in messages, f"missing {shape!r} finding"


def test_engine_fixture_flags_both_orderings():
    result = lint_fixture("bad_engine_after_key.py")
    assert len(result.active) == 2
    symbols = {f.symbol for f in result.active}
    assert symbols == {"render_cached", "render_resolved_late"}


def test_nondeterminism_fixture_needs_the_parity_surface():
    # Off the parity surface the same file is clean: the rule scopes
    # itself from the surface, not from a hand-maintained list.
    assert active_rules(lint_fixture("bad_nondeterminism.py")) == set()
    assert active_rules(lint_fixture("bad_float_eq.py")) == set()


def test_chaospoint_fixture_flags_every_shape():
    result = lint_fixture("bad_chaospoint.py")
    assert len(result.active) == 5
    messages = " ".join(f.message for f in result.active)
    for shape in ("unregistered", "non-literal", "bypasses the chaos layer",
                  "os.environ[...]"):
        assert shape in messages, f"missing {shape!r} finding"


def test_chaos_rule_accepts_registered_literal_points():
    # The real injection sites (worker task loop, registry disk IO)
    # use registered literals — the live-tree strict gate depends on
    # this staying clean, so pin it directly too.
    from repro.chaos import POINTS

    source = "".join(
        f"def probe_{i}(chaos):\n    return chaos.point({name!r})\n\n"
        for i, name in enumerate(sorted(POINTS)))
    result = run_lint_on_source(source)
    assert active_rules(result) == set()


def run_lint_on_source(source, tmp_dir=None):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.py"
        path.write_text(source)
        return run_lint([path], config=LintConfig())


def test_blessed_patterns_lint_clean():
    result = lint_fixture("good_blessed.py", assume_parity=True)
    assert result.findings == []


# ---------------------------------------------------------------------------
# Suppressions.
# ---------------------------------------------------------------------------

BAD_FLOAT = "def f(x):\n    return x == 1.0{marker}\n"


def _lint_source(tmp_path, source, assume_parity=True):
    path = tmp_path / "sample.py"
    path.write_text(source)
    return run_lint([path], config=LintConfig(assume_parity=assume_parity))


def test_line_suppression_waives_and_records_reason(tmp_path):
    marker = "  # repro: lint-ok[float-eq] exact saturation sentinel"
    result = _lint_source(tmp_path, BAD_FLOAT.format(marker=marker))
    assert result.active == []
    (finding,) = [f for f in result.findings if f.suppressed]
    assert finding.rule == "float-eq"
    assert finding.suppress_reason == "exact saturation sentinel"
    assert not result.gate_failed(strict=True)


def test_scope_suppression_covers_the_whole_def(tmp_path):
    source = textwrap.dedent("""\
        def f(x):  # repro: lint-ok[float-eq] whole fn compares saturation sentinels
            a = x == 1.0
            b = x != 0.0
            return a or b
        """)
    result = _lint_source(tmp_path, source)
    assert result.active == []
    assert sum(f.suppressed for f in result.findings) == 2


def test_suppression_without_reason_is_itself_a_finding(tmp_path):
    result = _lint_source(
        tmp_path, BAD_FLOAT.format(marker="  # repro: lint-ok[float-eq]"))
    rules = {f.rule for f in result.active}
    # The marker is malformed, so the float-eq finding stays live too.
    assert rules == {RULE_BAD_SUPPRESSION, "float-eq"}


def test_unused_suppression_is_flagged_as_stale(tmp_path):
    result = _lint_source(
        tmp_path, "def f(x):\n    return x  # repro: lint-ok[float-eq] stale\n")
    (finding,) = result.active
    assert finding.rule == RULE_UNUSED_SUPPRESSION
    assert finding.severity == WARNING


def test_marker_inside_a_docstring_is_not_a_suppression(tmp_path):
    source = ('def f():\n'
              '    """Use `# repro: lint-ok[rule-id] reason` to waive."""\n'
              '    return None\n')
    result = _lint_source(tmp_path, source)
    assert result.findings == []


def test_unparseable_file_is_a_finding_not_a_crash(tmp_path):
    result = _lint_source(tmp_path, "def broken(:\n", assume_parity=False)
    (finding,) = result.active
    assert finding.rule == RULE_PARSE_ERROR
    assert finding.severity == ERROR


# ---------------------------------------------------------------------------
# Baseline.
# ---------------------------------------------------------------------------

def test_baseline_round_trip_grandfathers_findings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(BAD_FLOAT.format(marker=""))
    first = run_lint([path], config=LintConfig(assume_parity=True))
    assert first.gate_failed(strict=False)

    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, first.active)
    baseline = load_baseline(baseline_path)
    assert len(baseline) == 1

    again = run_lint([path], config=LintConfig(assume_parity=True),
                     baseline=baseline)
    assert again.active == []
    assert sum(f.baselined for f in again.findings) == 1
    assert not again.gate_failed(strict=True)


def test_baseline_survives_line_drift(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(BAD_FLOAT.format(marker=""))
    first = run_lint([path], config=LintConfig(assume_parity=True))
    baseline_path = tmp_path / "baseline.json"
    baseline = write_baseline(baseline_path, first.active)

    # Edits above the finding shift its line; the fingerprint holds.
    path.write_text("# a new header comment\n\n" + BAD_FLOAT.format(marker=""))
    again = run_lint([path], config=LintConfig(assume_parity=True),
                     baseline=baseline)
    assert again.active == []
    assert sum(f.baselined for f in again.findings) == 1


def test_baseline_rejects_unknown_schema(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": "nope/9", "findings": []}))
    with pytest.raises(ValueError, match="unknown schema"):
        load_baseline(path)


def test_missing_baseline_is_empty():
    assert len(load_baseline(Path("/nonexistent/baseline.json"))) == 0


def test_committed_baseline_is_empty_and_well_formed():
    baseline_path = ROOT / "lint_baseline.json"
    doc = json.loads(baseline_path.read_text())
    assert doc["schema"] == BASELINE_SCHEMA
    assert doc["findings"] == []


# ---------------------------------------------------------------------------
# Reporters.
# ---------------------------------------------------------------------------

def test_json_report_schema(tmp_path):
    result = _lint_source(tmp_path, BAD_FLOAT.format(marker=""))
    doc = json.loads(render_json(result.findings, result.files_scanned,
                                 strict=True,
                                 parity_modules=sorted(result.parity_modules)))
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["strict"] is True
    assert doc["files_scanned"] == 1
    assert doc["counts"]["errors"] == 1
    (finding,) = doc["findings"]
    for key in ("rule", "severity", "path", "line", "symbol", "message",
                "fingerprint"):
        assert key in finding
    assert finding["rule"] == "float-eq"
    assert finding["symbol"] == "f"


def test_text_report_names_site_and_totals(tmp_path):
    result = _lint_source(tmp_path, BAD_FLOAT.format(marker=""))
    text = render_text(result.findings, result.files_scanned)
    assert "sample.py:2: error[float-eq]" in text
    assert "1 files scanned: 1 errors" in text


# ---------------------------------------------------------------------------
# Config: per-subsystem severity.
# ---------------------------------------------------------------------------

def test_relaxed_subsystems_downgrade_only_the_relaxed_rules():
    config = LintConfig()
    relaxed = get_rule("cache-key-params")
    assert config.severity_for(relaxed, "serve") == WARNING
    assert config.severity_for(relaxed, "rt") == ERROR
    assert config.severity_for(relaxed, None) == ERROR  # loose files: strict
    strict = get_rule("lock-discipline")
    assert config.severity_for(strict, "serve") == ERROR


def test_every_rule_documents_its_history():
    rules = all_rules()
    assert len(rules) >= 10
    for rule in rules:
        assert rule.description, rule.id
        assert rule.history, rule.id


# ---------------------------------------------------------------------------
# The live tree: the repo itself must hold its own invariants.
# ---------------------------------------------------------------------------

def test_live_tree_is_clean_under_strict():
    result = run_lint()
    offenders = [(f.path, f.line, f.rule, f.message) for f in result.active]
    assert offenders == []
    assert not result.gate_failed(strict=True)


def test_parity_surface_comes_from_the_import_graph():
    result = run_lint()
    assert "repro.render.renderer" in result.parity_modules
    assert "repro.rt.config" in result.parity_modules
    # The wavefront engine sits behind the same parity contract as the
    # packet engine, so the lint invariants apply to it too.
    assert "repro.rt.wavefront" in result.parity_modules
    assert "repro.bvh.flatten" in result.parity_modules
    # Layers above the render path are not on the surface.
    assert "repro.eval.harness" not in result.parity_modules
    assert "repro.analysis.core" not in result.parity_modules


# ---------------------------------------------------------------------------
# The CLI gate (what CI runs).
# ---------------------------------------------------------------------------

def _run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "repro", "lint", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=cwd or ROOT)


def test_cli_gate_trips_on_a_seeded_violation(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text("import threading\n\n_SHARED: dict = {}\n"
                   "_LOCK = threading.Lock()\n\n\n"
                   "def poke(key):\n    _SHARED[key] = 1\n")
    proc = _run_cli(str(bad), "--strict", "--json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["counts"]["errors"] == 1
    assert doc["findings"][0]["rule"] == "lock-discipline"


def test_cli_gate_trips_on_a_seeded_chaos_violation(tmp_path):
    # What the CI chaos-smoke job runs: an ad-hoc REPRO_CHAOS env read
    # must fail the strict gate under chaos-point-registered.
    bad = tmp_path / "seeded_chaos.py"
    bad.write_text("import os\n\n\ndef gate():\n"
                   "    return os.environ.get('REPRO_CHAOS')\n")
    proc = _run_cli(str(bad), "--strict", "--json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["findings"][0]["rule"] == "chaos-point-registered"


def test_cli_passes_on_a_clean_file(tmp_path):
    good = tmp_path / "clean.py"
    good.write_text("def double(x):\n    return 2 * x\n")
    proc = _run_cli(str(good), "--strict")
    assert proc.returncode == 0


def test_cli_list_rules_names_the_catalog():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in ("id-keyed-cache", "lock-discipline",
                    "parity-nondeterminism", "engine-before-key"):
        assert rule_id in proc.stdout


# ---------------------------------------------------------------------------
# The shared identity memo (satellite of the same PR).
# ---------------------------------------------------------------------------

class _Payload:
    pass


def test_identity_memo_hits_on_the_same_object():
    memo = IdentityMemo()
    obj = _Payload()
    built = []

    def build(o):
        built.append(o)
        return len(built)

    assert memo.get_or_build(obj, build) == 1
    assert memo.get_or_build(obj, build) == 1
    assert built == [obj]


def test_identity_memo_evicts_on_gc():
    memo = IdentityMemo()
    obj = _Payload()
    memo.put(obj, "value")
    assert len(memo) == 1
    del obj
    gc.collect()
    assert len(memo) == 0


def test_identity_memo_never_serves_a_different_object():
    memo = IdentityMemo()
    a, b = _Payload(), _Payload()
    memo.put(a, "a")
    assert memo.get(b) is None
    assert memo.get(a) == "a"


def test_identity_memo_tolerates_unweakrefable_objects():
    memo = IdentityMemo()
    key = (1, 2, 3)  # tuples cannot be weakly referenced
    memo.put(key, "v")
    assert memo.get(key) is None  # uncached, but no crash
    assert memo.get_or_build(key, lambda _: "built") == "built"
