"""Seeded inputs and output checks for the fiberprod benchmark.

Every operation is a `fiberprod` command line (`argv` for `fiberprod.cli.run`)
plus a check of its exit code and output.  Inputs come from the committed pool
(`pool.json`) and from `random.Random(seed)`; nothing here imports the package,
so a check never trusts the code it checks.

Where an identity exists the check uses it:

- resolve: the Euler/Hilbert identity
  sum_{i,j} (-1)^i beta_{i,j} H_A(d - j) = H_{A/J}(d) for d <= max_hom,
  with H counted here by enumerating monomials, and Froberg's identity for
  the quadratic case (Koszul: beta_{i,j} = 0 for j != i, totals 2^{i+1} - 1);
- series: result * den == num modulo t^(order+1);
- betti: bound * b == a modulo t^(n+1), with b and a formed here from the
  three input sequences.

Everything else (verify, depth, classify, and the full resolve tables) is
compared with the reports in `pool.json`, recorded once by `record.py` and
confirmed equal under both audit primes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

WORKLOADS = ("verify-small", "resolve-heavy", "formula-batch")

# Variable names a relabeling may use; each must match the schema pattern
# ^[A-Za-z_][A-Za-z_0-9]*$.
NAME_SETS = (
    ("x", "y", "z", "w"),
    ("a", "b", "c", "d"),
    ("u", "v", "s", "t"),
    ("x1", "x2", "x3", "x4"),
    ("X", "Y", "Z", "W"),
)

# formula-batch: one series and one betti operation at each order per pass;
# None leaves the order out, so the CLI default (16) applies.
SERIES_ORDERS = (None, 64, 150, 300)
BETTI_ORDERS = (16, 64, 150, 300)
STRUCTURE_DRAWS = 4  # depth and classify operations per pass, each

Monomial = Tuple[int, ...]
Check = Callable[[Optional[int], str, str], Optional[str]]


@dataclass
class Op:
    """One closed-loop operation: CLI arguments, a label and its check.

    `check(exit_code, stdout, stderr)` returns None when the outcome is the
    documented one, otherwise a one-line reason.
    """

    label: str
    argv: List[str]
    check: Check


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


# --- monomials and ideals (independent of the package) ----------------------


def divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomials(num_vars: int, degree: int) -> List[Monomial]:
    """Exponent vectors of one total degree, descending lex."""
    if num_vars == 1:
        return [(degree,)]
    return [
        (e,) + rest
        for e in range(degree, -1, -1)
        for rest in monomials(num_vars - 1, degree - e)
    ]


def minimalize(gens: Sequence[Sequence[int]]) -> List[Monomial]:
    gens = sorted({tuple(g) for g in gens})
    return [g for g in gens if not any(h != g and divides(h, g) for h in gens)]


def hilbert(num_vars: int, gens: Sequence[Sequence[int]], degree: int) -> int:
    """dim_k of the degree-d piece of P/(gens): standard monomials counted."""
    if degree < 0:
        return 0
    return sum(
        1 for m in monomials(num_vars, degree) if not any(divides(g, m) for g in gens)
    )


def format_monomial(m: Sequence[int], names: Sequence[str]) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for e, v in zip(m, names) if e]
    return "*".join(parts)


def unit_vectors(num_vars: int) -> List[Monomial]:
    return [tuple(int(i == j) for j in range(num_vars)) for i in range(num_vars)]


# --- relabeling ---------------------------------------------------------------


@dataclass(frozen=True)
class Relabel:
    """A variable permutation, new variable names and a generator encoding.

    New variable i is old variable perm[i]; `style` is "string", "array" or
    "mixed" (chosen per generator).  None of this changes a Betti number, a
    Poincare series or a verify report.
    """

    perm: Tuple[int, ...]
    names: Tuple[str, ...]
    style: str

    @classmethod
    def draw(cls, rng: random.Random, num_vars: int) -> "Relabel":
        perm = list(range(num_vars))
        rng.shuffle(perm)
        names = list(rng.choice(NAME_SETS)[:num_vars])
        rng.shuffle(names)
        style = rng.choice(("string", "array", "mixed"))
        return cls(tuple(perm), tuple(names), style)

    def monomial(self, m: Sequence[int]) -> Monomial:
        return tuple(m[p] for p in self.perm)

    def encode(self, rng: random.Random, gens: Sequence[Sequence[int]]) -> list:
        out = [self.monomial(g) for g in gens]
        rng.shuffle(out)
        encoded = []
        for m in out:
            as_string = self.style == "string" or (
                self.style == "mixed" and rng.random() < 0.5
            )
            encoded.append(format_monomial(m, self.names) if as_string else list(m))
        return encoded


def _wrap(rng: random.Random, kind: str, payload: dict) -> dict:
    """Scenario files carry {"kind", "payload"} or the bare payload."""
    return {"kind": kind, "payload": payload} if rng.random() < 0.5 else payload


# --- checks -------------------------------------------------------------------


def _parse(stdout: str, kind: str) -> dict:
    doc = json.loads(stdout)
    if doc.get("schema_version") != "1" or doc.get("kind") != kind:
        raise ValueError(f"unexpected envelope {doc.get('schema_version')!r}/{doc.get('kind')!r}")
    return doc["result"]


def expect_report(kind: str, expected: dict) -> Check:
    def check(code, stdout, stderr):
        if code != 0:
            return f"exit {code}, expected 0: {stderr.strip()[:200]}"
        if _parse(stdout, kind) != expected:
            return f"{kind} report differs from the recorded one"
        return None

    return check


def expect_validation_error(code, stdout, stderr) -> Optional[str]:
    if code != 1:
        return f"exit {code}, expected 1 (trivial fiber product)"
    if stdout or not stderr.startswith("validation error:"):
        return "exit 1 without the documented 'validation error' message"
    return None


def euler_defect(
    num_vars: int,
    ideal: Sequence[Sequence[int]],
    module: Sequence[Sequence[int]],
    betti: Sequence[Tuple[int, int, int]],
    max_hom: int,
) -> Optional[int]:
    """First degree d <= max_hom where the Euler/Hilbert identity fails."""
    module_gens = minimalize(list(module) + list(ideal))
    for d in range(max_hom + 1):
        lhs = sum((-1) ** i * v * hilbert(num_vars, ideal, d - j) for i, j, v in betti)
        if lhs != hilbert(num_vars, module_gens, d):
            return d
    return None


def check_resolve(case: dict, relabel: Relabel, code, stdout, stderr) -> Optional[str]:
    if code != 0:
        return f"exit {code}, expected 0: {stderr.strip()[:200]}"
    table = _parse(stdout, "resolve")
    n = len(relabel.perm)
    ideal = [relabel.monomial(g) for g in case["ideal"]]
    betti = [(i, j, int(v)) for i, j, v in table["betti"]]
    bad = euler_defect(n, ideal, unit_vectors(n), betti, case["max_hom"])
    if bad is not None:
        return f"Euler/Hilbert identity fails at degree {bad}"
    if case.get("koszul"):
        if any(i != j for i, j, _ in betti):
            return "quadratic monomial ring has a non-linear Betti entry"
        if [int(t) for t in table["total"]] != [2 ** (i + 1) - 1 for i in range(case["max_hom"] + 1)]:
            return "Froberg totals 2^(i+1)-1 do not hold"
    if table != case["expected"]:
        return "resolve table differs from the recorded one"
    return None


def conv(a: Sequence[int], b: Sequence[int], order: int) -> List[int]:
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def check_series(num, den, order, code, stdout, stderr) -> Optional[str]:
    if code != 0:
        return f"exit {code}, expected 0: {stderr.strip()[:200]}"
    coeffs = [int(c) for c in _parse(stdout, "series")["series"]]
    if len(coeffs) != order + 1:
        return f"series has {len(coeffs)} coefficients, expected {order + 1}"
    want = (list(num) + [0] * (order + 1))[: order + 1]
    if conv(coeffs, den, order) != want:
        return "series * den != num"
    return None


def check_betti(beta_m, beta_r, beta_s, n, is_large, code, stdout, stderr) -> Optional[str]:
    if code != 0:
        return f"exit {code}, expected 0: {stderr.strip()[:200]}"
    result = _parse(stdout, "betti")
    if result["label"] != ("exact" if is_large else "lower bound"):
        return f"betti label {result['label']!r} does not match is_large={is_large}"
    bound = [int(v) for v in result["bound"]]
    if len(bound) != n + 1:
        return f"bound has {len(bound)} entries, expected {n + 1}"
    rs = conv(beta_r, beta_s, n)
    b = [beta_r[i] + beta_s[i] - rs[i] for i in range(n + 1)]
    if conv(bound, b, n) != conv(beta_m, beta_s, n):
        return "bound * b != a"
    return None


# --- workloads ----------------------------------------------------------------


class Workload:
    """Deals passes of operations for one workload and seed.

    Pass k depends only on (workload, seed, k), so two runs with one seed
    see identical inputs.  Scenario files are written under `work_dir`.
    """

    def __init__(self, name: str, seed: int, work_dir: Path, pool: dict):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.pool = pool
        self._deal = {
            "verify-small": self._verify_pass,
            "resolve-heavy": self._resolve_pass,
            "formula-batch": self._formula_pass,
        }[name]

    @property
    def heavy_label(self) -> str:
        """Label of the fixed operation reported as heavy_op_s."""
        return {
            "verify-small": self.pool["verify_heavy"],
            "resolve-heavy": "x4-h5",
            "formula-batch": f"betti-n{BETTI_ORDERS[-1]}",
        }[self.name]

    def make_pass(self, k: int) -> List[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        ops = self._deal(rng, k)
        rng.shuffle(ops)
        return ops

    def _write(self, k: int, idx: int, doc: dict) -> str:
        path = self.work_dir / f"p{k}-{idx}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return os.fspath(path)

    # verify-small: every pool entry once per pass, in a seeded order.
    def _verify_pass(self, rng: random.Random, k: int) -> List[Op]:
        ops = []
        for idx, entry in enumerate(self.pool["verify"]):
            n = len(entry["I"][0])
            relabel = Relabel.draw(rng, n)
            payload = {
                "vars": list(relabel.names),
                "I": relabel.encode(rng, entry["I"]),
                "J": relabel.encode(rng, entry["J"]),
                "module": relabel.encode(rng, unit_vectors(n)),
            }
            for key in ("char", "is_large", "notes"):
                if key in entry:
                    payload[key] = entry[key]
            argv = ["verify", "--scenario", "", "--json"]
            if rng.random() < 0.5:
                argv += ["--order", str(entry["order"])]
            else:
                payload["order"] = entry["order"]
            argv[2] = self._write(k, idx, _wrap(rng, "verify", payload))
            if entry["expected"] == "trivial":
                check = expect_validation_error
            else:
                check = expect_report("verify", entry["expected"])
            ops.append(Op(entry["id"], argv, check))
        return ops

    # resolve-heavy: each case once per pass, relabeled per pass.
    def _resolve_pass(self, rng: random.Random, k: int) -> List[Op]:
        ops = []
        for idx, case in enumerate(self.pool["resolve"]):
            n = len(case["ideal"][0])
            relabel = Relabel.draw(rng, n)
            payload = {
                "vars": list(relabel.names),
                "ideal": relabel.encode(rng, case["ideal"]),
                "module": relabel.encode(rng, unit_vectors(n)),
                "max_hom": case["max_hom"],
            }
            path = self._write(k, idx, _wrap(rng, "resolve", payload))

            def check(code, out, err, case=case, relabel=relabel):
                return check_resolve(case, relabel, code, out, err)

            ops.append(Op(case["id"], ["resolve", "--scenario", path, "--json"], check))
        return ops

    # formula-batch: series and betti at fixed orders with seeded data, plus
    # depth and classify drawn from the structure pool.
    def _formula_pass(self, rng: random.Random, k: int) -> List[Op]:
        ops = []
        for order in SERIES_ORDERS:
            num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
            den = [rng.choice((1, -1))] + [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
            den[-1] = den[-1] or 1
            payload = {"num": [str(c) for c in num], "den": [str(c) for c in den]}
            argv = ["series", "--scenario", "", "--json"]
            if order is not None and rng.random() < 0.5:
                argv += ["--order", str(order)]
            elif order is not None:
                payload["order"] = order
            argv[2] = self._write(k, len(ops), _wrap(rng, "series", payload))
            eff = 16 if order is None else order

            def check(code, out, err, num=num, den=den, eff=eff):
                return check_series(num, den, eff, code, out, err)

            ops.append(Op(f"series-o{eff}", argv, check))
        for n in BETTI_ORDERS:
            extra = rng.randint(0, 3)
            beta_m = [rng.randint(1, 3)] + [rng.randint(0, 6) for _ in range(n + extra)]
            beta_r = [1] + [rng.randint(0, 4) for _ in range(n + extra)]
            beta_s = [1] + [rng.randint(0, 4) for _ in range(n + extra)]
            is_large = rng.random() < 0.5
            payload = {
                "beta_M_over_R": [str(v) for v in beta_m],
                "beta_T_over_R": [str(v) for v in beta_r],
                "beta_T_over_S": [str(v) for v in beta_s],
                "n": n,
                "is_large": is_large,
            }
            path = self._write(k, len(ops), _wrap(rng, "betti", payload))

            def check(code, out, err, m=beta_m, r=beta_r, s=beta_s, n=n, large=is_large):
                return check_betti(m, r, s, n, large, code, out, err)

            ops.append(Op(f"betti-n{n}", ["betti", "--scenario", path, "--json"], check))
        structure = self.pool["structure"]
        for kind in ("depth", "classify"):
            for entry in rng.sample(structure, STRUCTURE_DRAWS):
                if kind == "depth":
                    payload = dict(entry["data"])
                else:
                    payload = {"data": dict(entry["data"]), "depth": entry["classify_depth"]}
                path = self._write(k, len(ops), _wrap(rng, kind, payload))
                ops.append(
                    Op(f"{kind}-{entry['id']}", [kind, "--scenario", path, "--json"],
                       expect_report(kind, entry[kind]))
                )
        return ops
