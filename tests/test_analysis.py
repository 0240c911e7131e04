"""Tests for the static invariant analyzer (``astore lint``).

Per rule: a seeded positive, a clean negative, and a suppression; plus
framework behaviour (baseline round-trip, fingerprint drift stability,
holds/alias handling), the CLI surface (json, --rule, --explain,
--list-rules, --baseline), the committed CI-gate fixtures, and the
self-run asserting ``src/repro`` is clean modulo the committed
baseline.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    default_baseline_path,
    explain_rule,
    rule_ids,
    run_lint,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

RULES = (
    "lock-discipline",
    "plan-portability",
    "stamp-protocol",
    "async-hygiene",
)


def lint_source(tmp_path, source, filename="mod.py", rules=None):
    (tmp_path / filename).write_text(textwrap.dedent(source))
    return run_lint(root=tmp_path, rules=rules)


def rules_of(report):
    return sorted({f.rule for f in report.new})


# -- framework ---------------------------------------------------------------


def test_rule_ids_match_the_documented_set():
    assert tuple(rule_ids()) == RULES


def test_explain_rule_api():
    text = explain_rule("stamp-protocol")
    assert "mutation_count" in text
    assert explain_rule("no-such-rule") is None


def test_unknown_rule_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint(root=tmp_path, rules=["no-such-rule"])


def test_clean_tree_is_clean(tmp_path):
    report = lint_source(tmp_path, "x = 1\n")
    assert report.ok and not report.findings


def test_wildcard_suppression(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import time

        async def handler():
            time.sleep(1)  # astore: ignore[*]
        """,
    )
    assert report.ok
    assert report.suppressed == 1


def test_baseline_round_trip(tmp_path):
    source = """
    import time

    async def handler():
        time.sleep(1)
    """
    report = lint_source(tmp_path, source)
    assert len(report.new) == 1
    baseline_file = tmp_path / "baseline.json"
    Baseline.save(baseline_file, report.findings)

    again = run_lint(root=tmp_path, baseline_path=baseline_file)
    assert again.ok
    assert len(again.baselined) == 1

    # a second, new violation is NOT absolved by the old baseline
    (tmp_path / "other.py").write_text(
        "import time\n\n\nasync def g():\n    time.sleep(2)\n",
    )
    worse = run_lint(root=tmp_path, baseline_path=baseline_file)
    assert not worse.ok
    assert len(worse.new) == 1 and len(worse.baselined) == 1


def test_fingerprint_survives_line_drift(tmp_path):
    source = "import time\n\n\nasync def handler():\n    time.sleep(1)\n"
    (tmp_path / "mod.py").write_text(source)
    report = run_lint(root=tmp_path)
    baseline_file = tmp_path / "baseline.json"
    Baseline.save(baseline_file, report.findings)

    # insert unrelated lines above: line number moves, fingerprint stays
    (tmp_path / "mod.py").write_text("# a comment\nX = 1\n" + source)
    drifted = run_lint(root=tmp_path, baseline_path=baseline_file)
    assert drifted.ok
    assert drifted.baselined[0].line != report.findings[0].line


def test_baseline_multiplicity_is_consumed(tmp_path):
    # two identical violations on identical lines share a fingerprint;
    # a baseline carrying it once absolves only one of them
    source = """
    import time

    async def a():
        time.sleep(1)

    async def b():
        time.sleep(1)
    """
    report = lint_source(tmp_path, source)
    assert len(report.new) == 2
    fp = {f.fingerprint for f in report.new}
    assert len(fp) == 2  # symbol differs -> distinct fingerprints
    baseline_file = tmp_path / "baseline.json"
    Baseline.save(baseline_file, report.findings[:1])
    partial = run_lint(root=tmp_path, baseline_path=baseline_file)
    assert len(partial.new) == 1 and len(partial.baselined) == 1


# -- lock-discipline ---------------------------------------------------------


LOCK_PREAMBLE = textwrap.dedent(
    """
    import threading

    _STATE = {}
    _LOCK = threading.Lock()

    GUARDED_BY = {"_STATE": "_LOCK", "Box._items": "self._lock"}
    """
)


def lock_mod(body):
    return LOCK_PREAMBLE + textwrap.dedent(body)


def test_lock_discipline_flags_unguarded_global(tmp_path):
    report = lint_source(
        tmp_path,
        lock_mod(
            """
        def bad(key):
            if key in _STATE:
                return _STATE[key]
        """
        ),
        rules=["lock-discipline"],
    )
    assert len(report.new) == 2
    assert "check-then-act" in report.new[0].message


def test_lock_discipline_accepts_with_block_and_alias(tmp_path):
    report = lint_source(
        tmp_path,
        lock_mod(
            """
        def good(key):
            with _LOCK:
                return _STATE.get(key)

        def aliased(key):
            lock = _LOCK
            with lock:
                return _STATE.get(key)
        """
        ),
        rules=["lock-discipline"],
    )
    assert report.ok


def test_lock_discipline_holds_annotation(tmp_path):
    report = lint_source(
        tmp_path,
        lock_mod(
            """
        def helper(key):  # astore: holds[_LOCK]
            return _STATE.get(key)
        """
        ),
        rules=["lock-discipline"],
    )
    assert report.ok


def test_lock_discipline_instance_attrs_and_init_exemption(tmp_path):
    report = lint_source(
        tmp_path,
        lock_mod(
            """
        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []          # construction: exempt

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def bad_len(self):
                return len(self._items)   # unguarded
        """
        ),
        rules=["lock-discipline"],
    )
    assert len(report.new) == 1
    assert report.new[0].symbol == "self._items"


def test_lock_discipline_outer_with_does_not_leak_into_closure(tmp_path):
    report = lint_source(
        tmp_path,
        lock_mod(
            """
        def outer():
            with _LOCK:
                def later():
                    return _STATE.get("k")   # runs after the with exits
                return later
        """
        ),
        rules=["lock-discipline"],
    )
    assert len(report.new) == 1


def test_lock_discipline_suppression(tmp_path):
    report = lint_source(
        tmp_path,
        lock_mod(
            """
        def stats_only():
            return len(_STATE)  # astore: ignore[lock-discipline]
        """
        ),
        rules=["lock-discipline"],
    )
    assert report.ok and report.suppressed == 1


# -- plan-portability --------------------------------------------------------


def test_portability_flags_bad_annotation_and_lambda(tmp_path):
    report = lint_source(
        tmp_path,
        """
        from typing import Callable


        class Runtime:
            pass


        class Spec:
            __portable__ = True

            hook: Callable[[int], int]
            runtime: "Runtime"

            def bind(self):
                self.fn = lambda x: x
        """,
        rules=["plan-portability"],
    )
    messages = " | ".join(f.message for f in report.new)
    assert len(report.new) == 3
    assert "Callable" in messages and "Runtime" in messages and "lambda" in messages


def test_portability_ignores_unmarked_classes_and_getstate_popped(tmp_path):
    report = lint_source(
        tmp_path,
        """
        from typing import Callable


        class NotPortable:
            hook: Callable[[int], int]   # fine: never pickled by contract


        class Spec:
            __portable__ = True

            name: str

            def attach(self):
                self._runtime = lambda x: x   # popped below: exempt

            def __getstate__(self):
                state = dict(self.__dict__)
                state.pop("_runtime", None)
                return state
        """,
        rules=["plan-portability"],
    )
    assert report.ok


def test_portability_marked_portable_reference_is_accepted(tmp_path):
    report = lint_source(
        tmp_path,
        """
        class Leaf:
            __portable__ = True

            name: str


        class Spec:
            __portable__ = True

            leaf: Leaf
        """,
        rules=["plan-portability"],
    )
    assert report.ok


# -- stamp-protocol ----------------------------------------------------------


def test_stamp_flags_foreign_buffer_write(tmp_path):
    report = lint_source(
        tmp_path,
        """
        def evil(table):
            table._deleted[3] = True
        """,
        rules=["stamp-protocol"],
    )
    assert len(report.new) == 1
    assert "_deleted" in report.new[0].message


def test_stamp_entry_point_must_bump(tmp_path):
    report = lint_source(
        tmp_path,
        """
        class T:
            def truncate(self):
                self._nrows = 0

            def delete(self, pos):
                self._deleted[pos] = True
                self._mutation_count += 1

            def _grow(self):
                self._nrows += 16   # private helper: exempt
        """,
        filename="table.py",
        rules=["stamp-protocol"],
    )
    assert len(report.new) == 1
    assert report.new[0].symbol == "truncate"


def test_stamp_bump_must_journal_where_a_journal_is_kept(tmp_path):
    report = lint_source(
        tmp_path,
        """
        class T:
            def __init__(self):
                self._journal = (0, ())

            def update(self, pos):
                self._mutation_count += 1
                self._record(pos)

            def consolidate(self):
                self._nrows = 0
                self._mutation_count += 1
                self._journal = (self._mutation_count, ())

            def replace_column(self, name):
                self._mutation_count += 1

            def _record(self, pos):
                self._journal = (0, (pos,))
        """,
        filename="table.py",
        rules=["stamp-protocol"],
    )
    assert [f.symbol for f in report.new] == ["replace_column"]
    assert "journal" in report.new[0].message


def test_stamp_journal_is_a_buffer(tmp_path):
    report = lint_source(
        tmp_path,
        """
        def forge(table):
            table._journal = (0, ())
        """,
        rules=["stamp-protocol"],
    )
    assert len(report.new) == 1
    assert "_journal" in report.new[0].message


def test_stamp_classmethod_constructor_exempt(tmp_path):
    report = lint_source(
        tmp_path,
        """
        class T:
            @classmethod
            def from_arrays(cls, n):
                t = cls()
                t._nrows = n
                return t
        """,
        filename="table.py",
        rules=["stamp-protocol"],
    )
    assert report.ok


def test_stamp_suppression(tmp_path):
    report = lint_source(
        tmp_path,
        """
        def load(table, buf):
            table._deleted = buf  # astore: ignore[stamp-protocol]
        """,
        rules=["stamp-protocol"],
    )
    assert report.ok and report.suppressed == 1


# -- async-hygiene -----------------------------------------------------------


def test_async_flags_blocking_calls(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import subprocess
        import time


        async def handler(sock):
            time.sleep(1)
            subprocess.run(["true"])
            sock.recv(16)
        """,
        rules=["async-hygiene"],
    )
    assert len(report.new) == 3


def test_async_accepts_asyncio_and_nested_sync_defs(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import asyncio
        import time


        async def handler():
            await asyncio.sleep(1)

            def blocking_helper():
                time.sleep(1)   # runs in an executor, not the loop

            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, blocking_helper)


        def plain():
            time.sleep(1)       # sync code may block freely
        """,
        rules=["async-hygiene"],
    )
    assert report.ok


def test_async_suppression(tmp_path):
    report = lint_source(
        tmp_path,
        """
        import time


        async def warmup():
            time.sleep(0)  # astore: ignore[async-hygiene]
        """,
        rules=["async-hygiene"],
    )
    assert report.ok and report.suppressed == 1


# -- committed CI-gate fixtures ----------------------------------------------


def test_seeded_fixtures_trip_every_rule():
    report = run_lint(root=FIXTURES)
    assert not report.ok
    assert set(rules_of(report)) == set(RULES)


# -- the self-run: src/repro is clean ----------------------------------------


def test_src_repro_is_clean_modulo_baseline():
    report = run_lint()
    detail = "\n".join(f"{f.anchor()}: [{f.rule}] {f.message}" for f in report.new)
    assert report.ok, f"new lint findings in src/repro:\n{detail}"
    assert report.files > 50  # really scanned the package


def test_committed_baseline_is_empty():
    # the strongest statement the repo can make: every violation the
    # analyzer surfaced was fixed or given a reasoned suppression
    assert len(Baseline.load(default_baseline_path())) == 0


# -- CLI ---------------------------------------------------------------------


def test_cli_lint_json_on_violations(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import time\n\n\nasync def f():\n    time.sleep(1)\n",
    )
    code = main(["lint", str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["counts"]["new"] == 1
    assert payload["new"][0]["rule"] == "async-hygiene"
    assert payload["new"][0]["fingerprint"]


def test_cli_lint_rule_filter_and_text_output(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import time\n\n\nasync def f():\n    time.sleep(1)\n",
    )
    code = main(["lint", str(tmp_path), "--rule", "lock-discipline"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_cli_lint_explain_every_rule(capsys):
    for rule in RULES:
        assert main(["lint", "--explain", rule]) == 0
        out = capsys.readouterr().out
        assert rule in out
        assert "Violation:" in out and "Fix:" in out
        assert f"ignore[{rule}]" in out


def test_cli_lint_explain_unknown_rule(capsys):
    assert main(["lint", "--explain", "nope"]) == 1
    assert "unknown rule" in capsys.readouterr().err


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(RULES)


def test_cli_lint_baseline_write_and_reconcile(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import time\n\n\nasync def f():\n    time.sleep(1)\n",
    )
    baseline_file = tmp_path / "baseline.json"
    assert (
        main(
            [
                "lint",
                str(tmp_path),
                "--baseline",
                "--baseline-file",
                str(baseline_file),
            ],
        )
        == 0
    )
    assert "baseline written" in capsys.readouterr().out
    assert (
        main(["lint", str(tmp_path), "--baseline-file", str(baseline_file)]) == 0
    )
    out = capsys.readouterr().out
    assert "1 baselined" in out
