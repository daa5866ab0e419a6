#!/usr/bin/env python3
"""Regenerate perfbench/pool.json: the committed inputs of the benchmark and
the reports every check compares with.

    python3 perfbench/record.py

The verify pool is a fixed random sample (seed POOL_SEED) of every
nontrivial pair of monomial ideals, at most three minimal generators each,
in 2 variables up to degree 3 and in 3 variables up to degree 2, with the
residue field as module, plus the four corpus scenarios.  No pair is dropped
for being slow.  Every report is recorded under both audit primes and the
two must be equal.  Run it only when the expected outputs are meant to
change; the benchmark itself never rewrites the pool.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
from pathlib import Path

import run
from workloads import POOL_PATH, divides, minimalize, monomials, unit_vectors

POOL_SEED = 20240219
AUDIT_PRIMES = (32003, 65537)

TWO_VAR_PAIRS = 12  # orders 6-8
THREE_VAR_PAIRS = 8  # order 4: at order 6-8 one such verify took 6-39 s
TRIVIAL_PAIRS = 2
STRUCTURE_ENTRIES = 32

# resolve-heavy: residue fields.  "koszul" marks the quadratic case, whose
# Betti numbers Froberg's identity gives in closed form.
RESOLVE_CASES = (
    ("x4-h3", [(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 0), (0, 0, 0, 3)], 3, False),
    ("x4-h4", [(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 0), (0, 0, 0, 3)], 4, False),
    ("x4-h5", [(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 0), (0, 0, 0, 3)], 5, False),
    ("xyz-h6", [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)], 6, True),
)

NAMES = ("x", "y", "z", "w")


def ideals(num_vars: int, max_degree: int, max_gens: int = 3):
    mons = [m for d in range(1, max_degree + 1) for m in monomials(num_vars, d)]
    for r in range(1, max_gens + 1):
        for gens in itertools.combinations(mons, r):
            if all(not divides(a, b) for a in gens for b in gens if a != b):
                yield list(gens)


def contains(big, small) -> bool:
    return all(any(divides(g, h) for g in big) for h in small)


def nontrivial_pairs(num_vars: int, max_degree: int):
    found = list(ideals(num_vars, max_degree))
    return [(I, J) for I in found for J in found
            if not contains(I, J) and not contains(J, I)]


def parse(text: str, names) -> tuple:
    exps = [0] * len(names)
    for factor in text.split("*"):
        name, power = re.fullmatch(r"(\w+)(?:\^(\d+))?", factor).groups()
        exps[list(names).index(name)] += int(power or 1)
    return tuple(exps)


def report(cli, work: Path, kind: str, payload: dict, primes=AUDIT_PRIMES):
    """(exit code, result, seconds at the first prime); equal under all primes."""
    path = work / f"{kind}.json"
    path.write_text(json.dumps(payload))
    outcomes = [run.call(cli, [kind, "--scenario", str(path), "--json", "--char", str(p)])
                for p in primes]
    first = outcomes[0]
    if first.error:
        raise SystemExit(f"{kind} {payload}: {first.error}")
    results = [(o.code, json.loads(o.stdout)["result"] if o.code == 0 else None) for o in outcomes]
    if any(r != results[0] for r in results):
        raise SystemExit(f"{kind} {payload}: reports differ between primes {primes}")
    return first.code, results[0][1], first.seconds


def verify_entry(cli, work, entry_id, I, J, order, extra=None):
    n = len(I[0])
    payload = {"vars": list(NAMES[:n]), "I": [list(g) for g in I],
               "J": [list(g) for g in J], "module": [list(g) for g in unit_vectors(n)],
               "order": order, **(extra or {})}
    code, result, seconds = report(cli, work, "verify", payload)
    entry = {"id": entry_id, "I": payload["I"], "J": payload["J"], "order": order, **(extra or {})}
    if code == 0:
        entry["expected"] = result
    elif code == 1:
        entry["expected"] = "trivial"
    else:
        raise SystemExit(f"{entry_id}: exit {code}")
    print(f"{entry_id:14s} {seconds * 1000:9.1f} ms  exit {code}", flush=True)
    return entry, seconds


def tri(rng):
    return rng.choice((True, False, None))


def ring(rng, residue_field=False) -> dict:
    if residue_field:
        return {"dim": 0, "depth": 0, "edim": 0, "is_regular": True,
                "is_cohen_macaulay": True, "is_hypersurface": None,
                "is_complete_intersection": True}
    edim = rng.randint(1, 4)
    dim = rng.randint(0, edim)
    depth = rng.randint(0, dim)
    return {
        "dim": dim, "depth": depth, "edim": edim,
        "is_regular": rng.choice((True, None)) if edim == dim else rng.choice((False, None)),
        "is_cohen_macaulay": (depth == dim) if rng.random() < 0.7 else None,
        "is_hypersurface": tri(rng) if edim - depth <= 1 else rng.choice((False, None)),
        "is_complete_intersection": tri(rng),
    }


def fiber_data(rng) -> dict:
    residue = rng.random() < 0.3
    R, S, T = ring(rng), ring(rng), ring(rng, residue)
    return {
        "R": R, "S": S, "T": T,
        "grade_mR": rng.randint(0, R["depth"]),
        "grade_mS": rng.randint(0, S["depth"]),
        "grade_mT": rng.randint(0, T["depth"]),
        "beta1_T_over_R": rng.randint(1, 3),
        "beta1_T_over_S": rng.randint(1, 3),
        "beta2_T_over_S": rng.randint(0, 4),
        "T_is_residue_field": residue,
        "gamma_mR_in_ker": rng.random() < 0.5,
        "is_large": rng.random() < 0.5,
    }


def main() -> int:
    cli = run.import_package()["cli"]
    work = run.OUT_DIR / "record"
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(POOL_SEED)

    verify, seconds = [], {}
    for n, max_degree, count, orders in ((2, 3, TWO_VAR_PAIRS, (6, 7, 8)),
                                         (3, 2, THREE_VAR_PAIRS, (4,))):
        for k, (I, J) in enumerate(rng.sample(nontrivial_pairs(n, max_degree), count)):
            entry, s = verify_entry(cli, work, f"v{n}-{k:02d}", I, J, rng.choice(orders))
            verify.append(entry)
            seconds[entry["id"]] = s
    for k, base in enumerate(rng.sample(verify, TRIVIAL_PAIRS)):
        # J + I contains I: the fiber product is trivial, documented exit 1.
        J = [list(g) for g in minimalize(base["I"] + base["J"])]
        entry, _ = verify_entry(cli, work, f"trivial-{k}", base["I"], J, base["order"])
        if entry["expected"] != "trivial":
            raise SystemExit(f"{entry['id']} did not exit 1")
        verify.append(entry)
    corpus = sorted((run.ROOT / "src" / "fiberprod" / "corpus").glob("*.json"))
    for path in corpus:
        payload = json.loads(path.read_text())["payload"]
        names = payload["vars"]
        I = [parse(g, names) for g in payload["I"]]
        J = [parse(g, names) for g in payload["J"]]
        if sorted(parse(g, names) for g in payload["module"]) != sorted(unit_vectors(len(names))):
            raise SystemExit(f"{path.name}: module is not the residue field")
        extra = {k: payload[k] for k in ("char", "is_large", "notes") if k in payload}
        entry, s = verify_entry(cli, work, path.stem, I, J, payload["order"], extra)
        verify.append(entry)
        seconds[entry["id"]] = s

    resolve = []
    for case_id, ideal, max_hom, koszul in RESOLVE_CASES:
        n = len(ideal[0])
        payload = {"vars": list(NAMES[:n]), "ideal": [list(g) for g in ideal],
                   "module": [list(g) for g in unit_vectors(n)], "max_hom": max_hom}
        code, table, s = report(cli, work, "resolve", payload)
        if code != 0 or not all(table["complete"]):
            raise SystemExit(f"{case_id}: exit {code}")
        print(f"{case_id:14s} {s * 1000:9.1f} ms", flush=True)
        resolve.append({"id": case_id, "ideal": payload["ideal"], "max_hom": max_hom,
                        "koszul": koszul, "expected": table})

    structure = []
    for k in range(STRUCTURE_ENTRIES):
        data = fiber_data(rng)
        depth_input = rng.choice((None, 0, 1, 2))
        code_d, depth, _ = report(cli, work, "depth", data, primes=AUDIT_PRIMES[:1])
        code_c, classify, _ = report(cli, work, "classify",
                                     {"data": data, "depth": depth_input},
                                     primes=AUDIT_PRIMES[:1])
        if code_d or code_c:
            raise SystemExit(f"structure entry {k}: exit {code_d}/{code_c} for {data}")
        structure.append({"id": f"s{k:02d}", "data": data, "classify_depth": depth_input,
                          "depth": depth, "classify": classify})

    pool = {
        "pool_seed": POOL_SEED,
        "audit_primes": list(AUDIT_PRIMES),
        "verify_heavy": max(seconds, key=seconds.get),
        "verify": verify,
        "resolve": resolve,
        "structure": structure,
    }
    POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n")
    print(f"wrote {POOL_PATH}; heaviest verify entry {pool['verify_heavy']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
