#!/usr/bin/env python3
"""Robustness audit: rerun every corpus scenario under two different field
characteristics and demand bit-identical reports."""

import sys

from fiberprod import cli

PRIMES = (32003, 65537)


def main() -> int:
    failures = 0
    for sid in cli.corpus_ids():
        doc = cli.load_corpus_scenario(sid)
        if doc["kind"] != "verify":
            continue
        reports = {p: cli.run_verify(doc["payload"], char=p).to_json() for p in PRIMES}
        baseline = reports[PRIMES[0]]
        mismatched = [key for key, rep in reports.items() if rep != baseline]
        status = "ok" if not mismatched else f"MISMATCH {mismatched}"
        failures += bool(mismatched)
        print(f"{sid:16s} {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
