#!/usr/bin/env python3
"""Differential harness for the resolution oracle: seeded random `resolve`
cases, one output line per case.

    PYTHONPATH=src python scripts/diff_random.py --seed 2024 --count 3000 | sha256sum

Each case is a monomial quotient A = P/I in 1-4 variables (up to 4 ring
generators of degree <= 4, possibly none) with the cyclic module k or A/J,
J = I plus 1-3 generators of degree <= 3, resolved at hom 1-5 over GF(2),
GF(3), GF(32003) or GF(65537); every third case has an internal-degree
budget of max_hom + 0..2.  A line is the case as JSON with either its table
(the `resolve --json` fields plus the cutoff rules) or the exit code, class
and message of the error it raised.  Case k depends only on (seed, k), so a
shorter run prints a prefix of a longer one, and two commits agree on every
table, flag and error when the digests of their outputs agree.
"""

import argparse
import json
import random
import sys

from fiberprod import oracle
from fiberprod.errors import BudgetExceeded, InternalInconsistency, ValidationError

CHARS = (2, 3, 32003, 65537)
EXIT_CODES = ((ValidationError, 1), (BudgetExceeded, 2), (InternalInconsistency, 3))


def random_monomial(rng: random.Random, n: int, top: int) -> list:
    exps = [0] * n
    for _ in range(rng.randint(1, top)):
        exps[rng.randrange(n)] += 1
    return exps


def random_case(seed: int, k: int) -> dict:
    rng = random.Random(f"{seed}:{k}")
    n = rng.randint(1, 4)
    ideal = [random_monomial(rng, n, 4) for _ in range(rng.randint(0, 4))]
    module = None
    if rng.random() < 0.5:
        module = ideal + [random_monomial(rng, n, 3) for _ in range(rng.randint(1, 3))]
    max_hom = rng.randint(1, 5)
    return {
        "case": k,
        "vars": n,
        "char": rng.choice(CHARS),
        "ideal": ideal,
        "module": module,
        "max_hom": max_hom,
        "max_internal": max_hom + rng.randint(0, 2) if k % 3 == 2 else None,
    }


def run_case(case: dict) -> dict:
    n = case["vars"]
    ideal = oracle.MonomialIdeal.of(n, case["ideal"])
    try:
        if case["module"] is None:
            pres = oracle.QuotientPresentation.residue_field(ideal, char=case["char"])
        else:
            pres = oracle.QuotientPresentation(
                n, case["char"], ideal, oracle.MonomialIdeal.of(n, case["module"]))
        table = oracle.resolve(pres, case["max_hom"], case["max_internal"])
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        code = next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
        return {"exit": code, "error": f"{type(exc).__name__}: {exc}"}
    return {"table": table.to_json(), "reasons": table.reasons}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    for k in range(args.count):
        case = random_case(args.seed, k)
        print(json.dumps({**case, **run_case(case)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
