#!/usr/bin/env python3
"""Run the verify harness over every shipped corpus scenario and print a
one-line summary per scenario."""

import sys

from fiberprod import cli


def main() -> int:
    for sid in cli.corpus_ids():
        doc = cli.load_corpus_scenario(sid)
        if doc["kind"] != "verify":
            print(f"{sid:16s} skipped (kind {doc['kind']})")
            continue
        cli.validate_payload("verify", doc["payload"])
        report = cli.run_verify(doc["payload"])
        div = ("" if report.first_divergence is None
               else f" first divergence at {report.first_divergence}")
        print(f"{sid:16s} {report.relation}{div}")
        print(f"  formula: {list(report.formula_series.coeffs)}")
        print(f"  oracle:  {list(report.oracle_series.coeffs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
