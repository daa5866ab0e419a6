"""The scripts under scripts/ run end to end and report success."""

import importlib.util
from pathlib import Path

from fiberprod import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_corpus_main_succeeds(capsys):
    assert load("run_corpus").main() == 0
    out = capsys.readouterr().out
    for sid in cli.corpus_ids():
        assert sid in out


def test_dual_prime_audit_reports_every_scenario_ok(capsys):
    assert load("dual_prime_audit").main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [sid for sid, _ in rows] == cli.corpus_ids()
    assert all(status == "ok" for _, status in rows)
