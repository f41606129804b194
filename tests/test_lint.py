"""sweb-lint: every rule triggers on a seeded fixture, respects
suppressions and the allowlist, and the live tree is lint-clean."""

from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    ALL_RULES,
    DEFAULT_CONFIG,
    lint_file,
    run_lint,
    rules_by_name,
)

REPO = Path(__file__).resolve().parent.parent


def _lint(tmp_path, rel, code, rule=None):
    """Write a fixture at src/repro/<rel> inside tmp_path and lint it."""
    path = tmp_path / "src" / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(code)
    diags = lint_file(path)
    if rule is not None:
        diags = [d for d in diags if d.rule == rule]
    return diags


# -- determinism ----------------------------------------------------------

def test_wall_clock_flagged_in_sim_reachable_code(tmp_path):
    diags = _lint(tmp_path, "cluster/x.py",
                  '"""D."""\nimport time\n\ndef f():\n    return time.time()\n',
                  rule="det-wall-clock")
    assert len(diags) == 1 and diags[0].line == 5


def test_wall_clock_resolves_aliases(tmp_path):
    code = ('"""D."""\nfrom datetime import datetime as dt\n\n'
            'def f():\n    return dt.now()\n')
    diags = _lint(tmp_path, "core/x.py", code, rule="det-wall-clock")
    assert len(diags) == 1 and "datetime.datetime.now" in diags[0].message


def test_wall_clock_not_flagged_outside_sim_layers(tmp_path):
    code = '"""D."""\nimport time\n\ndef f():\n    return time.time()\n'
    assert _lint(tmp_path, "experiments/x.py", code,
                 rule="det-wall-clock") == []


def test_sleep_flagged(tmp_path):
    code = '"""D."""\nfrom time import sleep\n\ndef f():\n    sleep(1)\n'
    diags = _lint(tmp_path, "web/x.py", code, rule="det-sleep")
    assert len(diags) == 1 and diags[0].line == 5


def test_global_random_import_and_call_flagged(tmp_path):
    code = ('"""D."""\nimport random\n\n'
            'def f():\n    return random.random()\n')
    diags = _lint(tmp_path, "faults/x.py", code, rule="det-global-random")
    assert [d.line for d in diags] == [2, 5]


def test_urandom_flagged(tmp_path):
    code = '"""D."""\nimport os\n\ndef f():\n    return os.urandom(8)\n'
    diags = _lint(tmp_path, "sim/x.py", code, rule="det-urandom")
    assert len(diags) == 1


def test_foreign_rng_flagged_but_rng_module_allowlisted(tmp_path):
    code = ('"""D."""\nimport numpy as np\n\n'
            'def f():\n    return np.random.default_rng(1)\n')
    assert len(_lint(tmp_path, "cluster/x.py", code,
                     rule="det-foreign-rng")) == 1
    # the sanctioned source of randomness is exempt by allowlist
    assert _lint(tmp_path, "sim/rng.py", code, rule="det-foreign-rng") == []


# -- layering -------------------------------------------------------------

def test_sim_must_not_import_upper_layers(tmp_path):
    code = '"""D."""\nfrom ..cluster import Node\n'
    diags = _lint(tmp_path, "sim/x.py", code, rule="layer-import")
    assert len(diags) == 1 and "repro.cluster" in diags[0].message


def test_cluster_must_not_import_web(tmp_path):
    code = '"""D."""\nfrom repro.web import Client\n'
    diags = _lint(tmp_path, "cluster/x.py", code, rule="layer-import")
    assert len(diags) == 1


def test_downward_and_type_checking_imports_allowed(tmp_path):
    code = ('"""D."""\nfrom typing import TYPE_CHECKING\n'
            'from ..sim import Simulator\n'
            'if TYPE_CHECKING:\n'
            '    from ..core.sweb import SWEBCluster\n')
    assert _lint(tmp_path, "web/x.py", code, rule="layer-import") == []


def test_experiments_deep_import_flagged(tmp_path):
    code = ('"""D."""\nfrom ..core.costmodel import CostParameters\n'
            'from ..cluster import meiko_cs2\n'
            'from .base import ExperimentReport\n')
    diags = _lint(tmp_path, "experiments/x.py", code,
                  rule="layer-deep-import")
    assert len(diags) == 1 and diags[0].line == 2


def test_obs_sits_below_every_other_layer(tmp_path):
    # obs is the pure bottom layer: importing anything above it is
    # a layering violation...
    code = '"""D."""\nfrom ..experiments import runner\n'
    diags = _lint(tmp_path, "obs/x.py", code, rule="layer-import")
    assert len(diags) == 1 and "repro.experiments" in diags[0].message
    code = '"""D."""\nfrom ..sim import Simulator\n'
    assert len(_lint(tmp_path, "obs/x.py", code, rule="layer-import")) == 1
    # ...while every layer above may publish into it.
    code = '"""D."""\nfrom ..obs import MetricsRegistry\n'
    for layer in ("sim", "cluster", "cache", "faults", "web", "core",
                  "workload", "experiments"):
        assert _lint(tmp_path, f"{layer}/x.py", code,
                     rule="layer-import") == []


def test_obs_subject_to_determinism_rules(tmp_path):
    # tracing timestamps must come from the sim clock, never the host's
    code = '"""D."""\nimport time\n\ndef f():\n    return time.time()\n'
    diags = _lint(tmp_path, "obs/x.py", code, rule="det-wall-clock")
    assert len(diags) == 1


# -- I/O hygiene ----------------------------------------------------------

def test_print_flagged_in_library_code(tmp_path):
    code = '"""D."""\ndef f():\n    print("hi")\n'
    assert len(_lint(tmp_path, "core/x.py", code, rule="io-print")) == 1


def test_print_allowed_in_cli_and_scripts(tmp_path):
    code = '"""D."""\ndef f():\n    print("hi")\n'
    assert _lint(tmp_path, "cli.py", code, rule="io-print") == []
    script = tmp_path / "scripts" / "tool.py"
    script.parent.mkdir(parents=True)
    script.write_text(code)
    assert [d for d in lint_file(script) if d.rule == "io-print"] == []


def test_file_writes_flagged_but_reads_allowed(tmp_path):
    code = ('"""D."""\nfrom pathlib import Path\n\n'
            'def f(p):\n'
            '    open(p).read()\n'              # read: fine
            '    open(p, "w").write("x")\n'     # write: flagged
            '    Path(p).write_text("x")\n')    # write: flagged
    diags = _lint(tmp_path, "workload/x.py", code, rule="io-file-write")
    assert [d.line for d in diags] == [6, 7]


# -- scheduling misuse ----------------------------------------------------

def test_heapq_flagged_outside_engine(tmp_path):
    code = ('"""D."""\nimport heapq\n\n'
            'def f(q):\n    heapq.heappush(q, 1)\n')
    diags = _lint(tmp_path, "core/x.py", code, rule="sched-heapq")
    assert [d.line for d in diags] == [2, 5]
    assert _lint(tmp_path, "sim/engine.py", code, rule="sched-heapq") == []


def test_engine_internals_flagged(tmp_path):
    code = '"""D."""\ndef f(sim):\n    return len(sim._queue)\n'
    diags = _lint(tmp_path, "web/x.py", code, rule="sched-engine-internals")
    assert len(diags) == 1 and "_queue" in diags[0].message


# -- ordering -------------------------------------------------------------

def test_set_iteration_flagged(tmp_path):
    code = ('"""D."""\ndef f(xs):\n'
            '    s = {x for x in xs}\n'
            '    for x in s:\n'
            '        use(x)\n')
    diags = _lint(tmp_path, "core/x.py", code, rule="order-set-iter")
    assert [d.line for d in diags] == [4]


def test_set_iteration_sorted_is_clean(tmp_path):
    code = ('"""D."""\ndef f(xs):\n'
            '    s = set(xs)\n'
            '    for x in sorted(s):\n'
            '        use(x)\n')
    assert _lint(tmp_path, "core/x.py", code, rule="order-set-iter") == []


def test_set_taint_cleared_by_rebinding(tmp_path):
    code = ('"""D."""\ndef f(xs):\n'
            '    s = frozenset(xs)\n'
            '    s = sorted(s)\n'
            '    return list(s)\n')
    assert _lint(tmp_path, "sim/x.py", code, rule="order-set-iter") == []


def test_set_materialisers_and_join_flagged(tmp_path):
    code = ('"""D."""\ndef f(xs):\n'
            '    return list({1, 2} | set(xs))\n')
    assert len(_lint(tmp_path, "cache/x.py", code,
                     rule="order-set-iter")) == 1
    code = ('"""D."""\ndef f(names: set):\n'
            '    return ",".join(names)\n')
    assert len(_lint(tmp_path, "cache/x.py", code,
                     rule="order-set-iter")) == 1


def test_set_order_independent_consumers_allowed(tmp_path):
    code = ('"""D."""\ndef f(xs):\n'
            '    s = set(xs)\n'
            '    return len(s), min(s), max(s), any(s), sorted(s)\n')
    assert _lint(tmp_path, "sim/x.py", code, rule="order-set-iter") == []


def test_env_read_flagged_in_det_layers_only(tmp_path):
    code = ('"""D."""\nimport os\n\n'
            'def f():\n    return os.environ["HOME"], os.getenv("X")\n')
    diags = _lint(tmp_path, "sim/x.py", code, rule="order-env-read")
    assert len(diags) == 2
    # experiments drive the host-facing side and may read the env
    assert _lint(tmp_path, "experiments/x.py", code,
                 rule="order-env-read") == []


def test_locale_read_flagged(tmp_path):
    code = ('"""D."""\nimport locale\n\n'
            'def f():\n    return locale.getlocale()\n')
    assert len(_lint(tmp_path, "web/x.py", code,
                     rule="order-env-read")) == 1


def test_multiprocessing_outside_shard_flagged(tmp_path):
    code = '"""D."""\nimport multiprocessing\n'
    diags = _lint(tmp_path, "workload/x.py", code, rule="order-mp-merge")
    assert len(diags) == 1 and "shard.py" in diags[0].message
    # the canonical merge file itself may import it...
    assert _lint(tmp_path, "experiments/shard.py", code,
                 rule="order-mp-merge") == []
    # ...but completion-order primitives are banned even there
    code = ('"""D."""\ndef f(pool, work):\n'
            '    return list(pool.imap_unordered(run, work))\n')
    assert len(_lint(tmp_path, "experiments/shard.py", code,
                     rule="order-mp-merge")) == 1


# -- docstrings -----------------------------------------------------------

def test_docstring_rules_flag_bare_module_and_class(tmp_path):
    diags = _lint(tmp_path, "core/x.py", "class Undocumented:\n    pass\n")
    rules = {d.rule for d in diags}
    assert {"doc-module", "doc-class"} <= rules


# -- suppressions ---------------------------------------------------------

def test_same_line_suppression(tmp_path):
    code = ('"""D."""\nimport time\n\n'
            'def f():\n'
            '    return time.time()  # sweb-lint: disable=det-wall-clock\n')
    assert _lint(tmp_path, "sim/x.py", code, rule="det-wall-clock") == []


def test_standalone_comment_suppresses_next_line(tmp_path):
    code = ('"""D."""\nimport time\n\n'
            'def f():\n'
            '    # justified: measuring host overhead, not simulated time\n'
            '    # sweb-lint: disable=det-wall-clock\n'
            '    return time.time()\n')
    assert _lint(tmp_path, "sim/x.py", code, rule="det-wall-clock") == []


def test_suppression_is_rule_specific(tmp_path):
    code = ('"""D."""\nimport time\n\n'
            'def f():\n'
            '    return time.time()  # sweb-lint: disable=io-print\n')
    assert len(_lint(tmp_path, "sim/x.py", code,
                     rule="det-wall-clock")) == 1


def test_disable_all_suppresses_everything(tmp_path):
    code = ('"""D."""\nimport time\n\n'
            'def f():\n'
            '    return time.time()  # sweb-lint: disable=all\n')
    assert _lint(tmp_path, "sim/x.py", code, rule="det-wall-clock") == []


# -- registry / config ----------------------------------------------------

def test_every_rule_has_name_summary_and_unique_id():
    names = [rule.name for rule in ALL_RULES]
    assert len(names) == len(set(names))
    for rule in ALL_RULES:
        assert rule.name and rule.summary


def test_rules_by_name_covers_all():
    assert set(rules_by_name()) == {r.name for r in ALL_RULES}


def test_allowlist_matching():
    assert DEFAULT_CONFIG.allows("io-print", "src/repro/cli.py")
    assert DEFAULT_CONFIG.allows("io-print", "scripts/bench_compare.py")
    assert not DEFAULT_CONFIG.allows("io-print", "src/repro/core/sweb.py")


# -- the gate: the live tree is lint-clean --------------------------------

def test_live_tree_is_lint_clean(lint_cache):
    diags = run_lint([REPO / "src", REPO / "scripts"], cache=lint_cache)
    assert diags == [], "\n".join(d.format() for d in diags)


# -- CLI ------------------------------------------------------------------

def test_cli_lint_exits_zero_on_clean_tree(capsys):
    assert cli_main(["lint"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_lint_reports_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "cluster" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text('"""D."""\nimport time\n\n'
                   'def f():\n    return time.time()\n')
    assert cli_main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "src/repro/cluster/bad.py:5: det-wall-clock:" in out


def test_cli_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.name in out


def test_cli_lint_unparseable_file(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "sim" / "broken.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(:\n")
    assert cli_main(["lint", str(tmp_path)]) == 1
    assert "parse-error" in capsys.readouterr().out


def test_cli_types_flag_degrades_without_mypy(capsys):
    # With mypy absent the pass is skipped with a notice; with mypy
    # present it must run and succeed — either way lint stays usable.
    code = cli_main(["lint", "--types"])
    captured = capsys.readouterr()
    if "skipped" in captured.err:
        assert code == 0
    else:
        assert code in (0, 1)
