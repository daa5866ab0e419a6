"""The scripts under scripts/ run end to end and report success."""

import hashlib
import importlib.util
from pathlib import Path

from fiberprod import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DATA = Path(__file__).resolve().parent / "data"


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


def test_diff_random_matches_the_recorded_digest(capsys):
    # the first 150 of the 3,000 cases that CI checks
    assert load("diff_random").main(["--seed", "2024", "--count", "150"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 150
    recorded = (DATA / "diff-random-2024-150.sha256").read_text().split()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == recorded
