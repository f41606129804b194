"""Deep-tier lint: call-graph reachability, substream audit, purity.

Each deep rule triggers on a seeded fixture tree (and respects
suppressions and the baseline), the whole-program model resolves
aliases, re-exports and spawn sites, and — the tier-1 gate — the live
tree is ``--deep``-clean.
"""

import json
from pathlib import Path

from repro.cli import main as cli_main
from repro.lint import ALL_DEEP_RULES, find_repo_root, run_deep
from repro.lint.deep import baseline_key, load_baseline
from repro.lint.engine import REPO_ROOT

REPO = Path(__file__).resolve().parent.parent

#: distinct names with the same crc32 key (1871814455) — the hazard the
#: stream-collision rule exists for
CRC32_TWINS = ("599430bd25", "f7633dd321")


def _tree(tmp_path, files):
    """Write a fixture package under tmp_path/src/repro; return its root."""
    root = tmp_path / "src" / "repro"
    base = {"__init__.py": '"""D."""\n'}
    for rel, code in {**base, **files}.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(code)
    return root


def _deep(tmp_path, files, rule=None):
    diags = run_deep(paths=[_tree(tmp_path, files)])
    if rule is not None:
        diags = [d for d in diags if d.rule == rule]
    return diags


# -- det-reach: hazards through alias + re-export -------------------------

_REACH_FILES = {
    "sim/__init__.py": '"""D."""\n',
    "sim/engine.py": (
        '"""D."""\n'
        'from ..experiments import helper\n\n\n'
        'class Simulator:\n'
        '    """D."""\n\n'
        '    def run(self):\n'
        '        """D."""\n'
        '        return helper()\n'),
    # re-export under a different name: the call graph must chase the
    # package __init__ alias back to the defining module
    "experiments/__init__.py": (
        '"""D."""\nfrom .driver import work_item as helper\n'),
    "experiments/driver.py": (
        '"""D."""\nimport time\n\n\n'
        'def work_item():\n'
        '    """D."""\n'
        '    return time.time()\n\n\n'
        'def idle():\n'
        '    """D."""\n'
        '    return time.time()\n'),
}


def test_det_reach_fires_through_alias_and_reexport(tmp_path):
    diags = _deep(tmp_path, _REACH_FILES, rule="det-reach-wall-clock")
    # work_item() is reachable from Simulator.run and flagged with its
    # provenance chain; idle() is dead code and stays exempt
    assert len(diags) == 1
    diag = diags[0]
    assert diag.path == "src/repro/experiments/driver.py"
    assert diag.line == 7
    assert "[sim-reachable:" in diag.message
    assert "Simulator.run" in diag.message


def test_det_reach_respects_suppression_comment(tmp_path):
    files = dict(_REACH_FILES)
    files["experiments/driver.py"] = (
        '"""D."""\nimport time\n\n\n'
        'def work_item():\n'
        '    """D."""\n'
        '    # host-time probe, excluded from fingerprints\n'
        '    # sweb-lint: disable=det-reach-wall-clock\n'
        '    return time.time()\n')
    assert _deep(tmp_path, files, rule="det-reach-wall-clock") == []


def test_det_reach_fires_via_spawn_site(tmp_path):
    files = {
        "sim/__init__.py": '"""D."""\n',
        "sim/engine.py": (
            '"""D."""\nfrom ..workload.procs import ticker\n\n\n'
            'class Simulator:\n'
            '    """D."""\n\n'
            '    def spawn(self, proc):\n'
            '        """D."""\n'
            '        return proc\n\n'
            '    def run(self):\n'
            '        """D."""\n'
            '        self.spawn(ticker())\n'),
        "workload/__init__.py": '"""D."""\n',
        "workload/procs.py": (
            '"""D."""\nimport time\n\n\n'
            'def ticker():\n'
            '    """D."""\n'
            '    yield time.time()\n'),
    }
    diags = _deep(tmp_path, files, rule="det-reach-wall-clock")
    assert len(diags) == 1
    assert diags[0].path == "src/repro/workload/procs.py"


# -- stream audit ---------------------------------------------------------

def test_stream_collision_detected(tmp_path):
    a, b = CRC32_TWINS
    files = {
        "workload/__init__.py": '"""D."""\n',
        "workload/gen.py": (
            '"""D."""\n\n\n'
            'def draw(rng):\n'
            '    """D."""\n'
            f'    return rng.stream("{a}"), rng.stream("{b}")\n'),
    }
    diags = _deep(tmp_path, files, rule="stream-collision")
    assert len(diags) == 1
    assert a in diags[0].message and b in diags[0].message


def test_stream_dynamic_name_flagged(tmp_path):
    files = {
        "workload/__init__.py": '"""D."""\n',
        "workload/gen.py": (
            '"""D."""\n\n\n'
            'def draw(rng, i):\n'
            '    """D."""\n'
            '    return rng.stream("shard-" + str(i))\n'),
    }
    diags = _deep(tmp_path, files, rule="stream-dynamic")
    assert len(diags) == 1


def test_stream_name_resolved_through_parameter_default(tmp_path):
    # mirrors the live samplers: the literal flows in via the factory's
    # parameter default, so nothing is dynamic and no collision exists
    files = {
        "workload/__init__.py": '"""D."""\n',
        "workload/gen.py": (
            '"""D."""\n\n\n'
            'def make(rng, stream="zipf"):\n'
            '    """D."""\n'
            '    return rng.stream(stream), rng.stream(stream + "-tail")\n'),
    }
    assert _deep(tmp_path, files) == []


# -- observation purity ---------------------------------------------------

_PURITY_FILES = {
    "obs/__init__.py": '"""D."""\n',
    "obs/sink.py": (
        '"""D."""\n\n'
        '_CACHE = {}\n\n\n'
        'class Span:\n'
        '    """D."""\n\n'
        '    def __init__(self):\n'
        '        """D."""\n'
        '        self.tags = {}\n\n\n'
        'def annotate(span: Span, key, value):\n'
        '    """D."""\n'
        '    span.tags[key] = value\n\n\n'
        'def remember(key, value):\n'
        '    """D."""\n'
        '    _CACHE[key] = value\n\n\n'
        'def scribble(state):\n'
        '    """D."""\n'
        '    state.count = 1\n'),
}


def test_purity_flags_global_and_foreign_param_writes(tmp_path):
    diags = _deep(tmp_path, _PURITY_FILES)
    rules = {d.rule for d in diags}
    # remember() writes module state; scribble() writes caller state;
    # annotate() mutates an obs-annotated Span and is the layer's job
    assert "purity-obs-global" in rules
    assert "purity-obs-param" in rules
    assert {d.line for d in diags} == {21, 26}


def test_purity_writeback_boundary(tmp_path):
    files = dict(_PURITY_FILES)
    files["web/__init__.py"] = '"""D."""\n'
    files["web/srv.py"] = (
        '"""D."""\nfrom ..obs.sink import Span, annotate\n\n\n'
        'def bad(conn):\n'
        '    """D."""\n'
        '    annotate(conn, "k", 1)\n\n\n'
        'def good():\n'
        '    """D."""\n'
        '    span = Span()\n'
        '    annotate(span, "k", 1)\n')
    diags = _deep(tmp_path, files, rule="purity-obs-writeback")
    # bad() hands a non-obs value to a mutating obs call; good()'s
    # locally-constructed Span is statically an obs handle
    assert [d.line for d in diags] == [7]
    assert diags[0].path == "src/repro/web/srv.py"


# -- baseline -------------------------------------------------------------

def test_baseline_filters_known_findings(tmp_path):
    a, b = CRC32_TWINS
    files = {
        "workload/__init__.py": '"""D."""\n',
        "workload/gen.py": (
            '"""D."""\n\n\n'
            'def draw(rng):\n'
            '    """D."""\n'
            f'    return rng.stream("{a}"), rng.stream("{b}")\n'),
    }
    root = _tree(tmp_path, files)
    found = run_deep(paths=[root])
    assert found
    ratchet = tmp_path / "baseline.json"
    ratchet.write_text(json.dumps(
        {"deep": [baseline_key(d) for d in found]}))
    assert run_deep(paths=[root], baseline=load_baseline(ratchet)) == []


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == frozenset()


# -- repo-root anchoring --------------------------------------------------

def test_find_repo_root_walks_to_marker(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[tool.fake]\n")
    nested = tmp_path / "a" / "b" / "c.py"
    nested.parent.mkdir(parents=True)
    nested.write_text("x = 1\n")
    assert find_repo_root(nested) == tmp_path


def test_find_repo_root_falls_back_without_marker(tmp_path):
    # no pyproject.toml anywhere above tmp_path: the historical layout
    # fallback must still land on this repo's root
    assert find_repo_root(tmp_path / "orphan.py") == REPO
    assert REPO_ROOT == REPO


# -- the whole-program model ----------------------------------------------

def test_live_program_reaches_the_engine_entry_points(live_program):
    run = "repro.sim.engine.Simulator.run"
    assert live_program.is_reachable(run)
    assert "(entry point)" in live_program.explain(run)
    # a healthy graph: hundreds of functions, a sizeable reachable core
    assert len(live_program.functions) > 400
    assert len(live_program.sim_reachable) > 100


def test_deep_rules_have_unique_names():
    names = [rule.name for rule in ALL_DEEP_RULES]
    assert len(names) == len(set(names))
    for rule in ALL_DEEP_RULES:
        assert rule.name and rule.summary


# -- the gate: the live tree is deep-clean --------------------------------

def test_live_tree_is_deep_clean(live_program):
    diags = run_deep(program=live_program)
    assert diags == [], "\n".join(d.format() for d in diags)


def test_committed_baseline_is_empty():
    # the ratchet must only ever be introduced with a justification;
    # today the tree is clean and the committed baseline says so
    assert load_baseline() == frozenset()


# -- CLI ------------------------------------------------------------------

def test_cli_deep_exits_zero_on_clean_tree(capsys, cached_lint_cli):
    assert cli_main(["lint", "--deep"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_list_rules_includes_deep(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_DEEP_RULES:
        assert rule.name in out
    assert "[deep]" in out
