"""The four workloads: seeded inputs, one operation, and its check.

Each workload exposes ``items`` (one pass: the fixed list of operations a
run repeats whole), ``run(item)`` (the timed operation), ``failure(item,
out)`` (why an operation failed, or None) and ``check(item, out)`` (the
problems found in a successful output, from ``checks``).  In-process
workloads call fanov5 through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import checks


def _rng(workload: str, seed: int) -> Random:
    return Random(f"{workload}:{seed}")


def _random_rep(rng: Random, d: tuple[int, int], q) -> dict:
    """Representation as plain data: {"q": p | "rational", "d": d, "maps": [A, B, C]}."""
    d1, d2 = d
    draw = (lambda: rng.randint(-9, 9)) if q == "rational" else (lambda: rng.randrange(q))
    maps = [[[draw() for _ in range(d1)] for _ in range(d2)] for _ in range(3)]
    return {"q": q, "d": d, "maps": maps}


def _direct_sum(x: dict, y: dict) -> dict:
    (x1, x2), (y1, y2) = x["d"], y["d"]
    maps = []
    for mx, my in zip(x["maps"], y["maps"]):
        rows = [list(r) + [0] * y1 for r in mx] + [[0] * x1 + list(r) for r in my]
        maps.append(rows)
    return {"q": x["q"], "d": (x1 + y1, x2 + y2), "maps": maps}


def _rep_file_json(rep: dict) -> str:
    a, b, c = rep["maps"]
    return json.dumps({"q": rep["q"], "d": list(rep["d"]), "A": a, "B": b, "C": c})


def _witness_data(w) -> dict | None:
    if w is None:
        return None
    return {
        "basis1": [[int(x) for x in row] for row in w.basis1],
        "basis2": [[int(x) for x in row] for row in w.basis2],
        "theta": w.theta,
    }


class InProcess:
    def failure(self, item, out) -> str | None:
        return f"{type(out).__name__}: {out}" if isinstance(out, Exception) else None


class SheafSweep(InProcess):
    """Every (catalog bundle, twist in -12..12) on Gr(2,5), in seeded order."""

    name = "sheaf-sweep"
    CODIMS = (1, 2, 3)

    def __init__(self, seed: int, workdir: Path, root: Path):
        from fanov5 import bundles, chow, koszul

        self.bundles, self.chow, self.koszul = bundles, chow, koszul
        self.items = [(n, j) for n in checks.GR25_WEIGHTS for j in range(-12, 13)]
        _rng(self.name, seed).shuffle(self.items)

    def run(self, item):
        name, j = item
        b = self.bundles.twist(self.bundles.catalog(name), j)
        table = self.bundles.cohomology(b)
        restricted = [
            self.koszul.restrict_cohomology(b, c, g) for c in self.CODIMS for g in (False, True)
        ]
        verdict = self.koszul.ulrich_check(b, 3)
        chi = self.chow.chi(self.chow.catalog_class(name), j)
        return table, restricted, verdict, chi

    def check(self, item, out) -> list[str]:
        name, j = item
        table, restricted, verdict, chi = out
        weight = checks.twisted(checks.GR25_WEIGHTS[name], j)
        problems = checks.check_ambient(weight, table.dims())
        for res in restricted:
            dims = res.table.dims() if res.table is not None else None
            problems += checks.check_restriction(weight, res.page.codim, dims, chi)
        problems += checks.check_ulrich(name, weight, verdict.is_ulrich)
        return [f"{name}({j:+d}): {p}" for p in problems]


class HomExtQ(InProcess):
    """Pairs of seeded (4,4) representations over Q: half (a, a), half (a, b)."""

    name = "homext-q"
    PAIRS = 8
    DIM = (4, 4)

    def __init__(self, seed: int, workdir: Path, root: Path):
        from fanov5 import linalg, quiver

        self.quiver = quiver
        rng = _rng(self.name, seed)
        self.items = []
        for i in range(self.PAIRS):
            a = _random_rep(rng, self.DIM, "rational")
            b = a if i % 2 == 0 else _random_rep(rng, self.DIM, "rational")
            reps = [quiver.make_rep(linalg.QQ, r["d"], *r["maps"]) for r in (a, b)]
            self.items.append((i, a, b, reps))
        rng.shuffle(self.items)
        self._expected: dict[int, tuple[int, int]] = {}

    def run(self, item):
        return self.quiver.hom_ext(*item[3])

    def check(self, item, out) -> list[str]:
        i, a, b, _ = item
        if i not in self._expected:
            self._expected[i] = checks.hom_ext_expected(a, b)
        problems = checks.check_hom_ext(a, b, out, self._expected[i])
        return [f"pair {i}: {p}" for p in problems]


class StabilityFp(InProcess):
    """Seeded (4,4) representations over F5; a quarter are sums of two (2,2)."""

    name = "stability-fp"
    REPS = 8
    P = 5

    def __init__(self, seed: int, workdir: Path, root: Path):
        from fanov5 import linalg, quiver

        self.quiver = quiver
        rng = _rng(self.name, seed)
        field = linalg.PrimeField(self.P)
        self.items = []
        for i in range(self.REPS):
            if i % 4 == 0:
                rep = _direct_sum(_random_rep(rng, (2, 2), self.P), _random_rep(rng, (2, 2), self.P))
            else:
                rep = _random_rep(rng, (4, 4), self.P)
            self.items.append((i, rep, i % 4 == 0, quiver.make_rep(field, rep["d"], *rep["maps"])))
        rng.shuffle(self.items)
        self._best: dict[int, int | None] = {}

    def run(self, item):
        return self.quiver.check_stability(item[3])

    def check(self, item, out) -> list[str]:
        i, rep, is_sum, _ = item
        if i not in self._best:
            self._best[i] = checks.max_theta(rep)
        problems = checks.check_stability(
            rep, out.status.value, _witness_data(out.witness), self._best[i], direct_sum=is_sum
        )
        return [f"rep {i}: {p}" for p in problems]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expected_exit: int
    check: Callable[[str], list[str]]

    def __str__(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class CliOut:
    returncode: int
    stdout: str
    stderr: str


def _json_check(fn: Callable[[object], list[str]]) -> Callable[[str], list[str]]:
    """A stdout check: the output parses as JSON and ``fn`` finds no problem in it."""

    def check(stdout: str) -> list[str]:
        try:
            return fn(json.loads(stdout))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"unexpected output {stdout.strip()[:200]!r}: {exc!r}"]

    return check


def _json_is(expected) -> Callable[[str], list[str]]:
    return _json_check(lambda got: [] if got == expected else [f"printed {got!r}, expected {expected!r}"])


ENTRY = "import sys; from fanov5.cli import main; sys.exit(main())"


class Cli:
    """One fanov5 subprocess per operation, cycling through the README commands."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path, root: Path):
        rng = _rng(self.name, seed)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        stab = _random_rep(rng, (3, 3), 3)
        hom_a = _random_rep(rng, (3, 3), "rational")
        hom_b = _random_rep(rng, (3, 3), "rational")
        rank = rng.randint(2, 6)
        files = {
            "stab.json": _rep_file_json(stab),
            "hom_a.json": _rep_file_json(hom_a),
            "hom_b.json": _rep_file_json(hom_b),
            "bad_d.json": json.dumps({"q": "rational", "d": [2], "A": [], "B": [], "C": []}),
            "bad_A.json": json.dumps({"q": 3, "d": [2, 2], "A": 5, "B": [[0, 0]] * 2, "C": [[0, 0]] * 2}),
        }
        for fname, text in files.items():
            (workdir / fname).write_text(text, encoding="utf-8")
        path = lambda fname: str((workdir / fname).relative_to(root))  # noqa: E731
        u = checks.GR25_WEIGHTS["U"]

        def stab_check(got):
            problems = checks.check_stability(stab, got["status"], got["witness"], checks.max_theta(stab))
            if got["theta"] != checks.theta(stab["d"]):
                problems.append(f"theta {got['theta']} != {checks.theta(stab['d'])}")
            return problems

        def chain_check(got):
            want = checks.dominant_chain_end(checks.twisted(u, -5))
            if got["singular"] or (got["length"], tuple(got["final"])) != want:
                return [f"chain ends at ({got['length']}, {got['final']}), expected {want}"]
            return []

        def restrict_check(got):
            h = {int(k): v for k, v in got["h"].items()}
            problems = checks.check_restriction(checks.twisted(u, -2), 3, h)
            if h != {3: 5} or got["status"] != "exact":
                problems.append(f"U(-2) on V5 should be exact with h^3 = 5, got {got}")
            return problems

        def chi_check(got):
            want = checks.section_chi(checks.twisted(u, -2), 3)
            return [] if got == want == -5 else [f"chi(U(-2)) = {got}, Koszul gives {want}"]

        def hom_check(got):
            return checks.check_hom_ext(hom_a, hom_b, (got["hom"], got["ext1"]))

        self.items = [
            Command(("bwb", "--bundle", "U", "--twist", "1"), 0,
                    _json_check(lambda g: [] if g["h"] == {"0": 5} else [f"h = {g['h']}"])),
            Command(("chain", "--bundle", "U", "--twist", "-5"), 0, _json_check(chain_check)),
            Command(("restrict", "--bundle", "U", "--twist", "-2", "--codim", "3"), 0,
                    _json_check(restrict_check)),
            Command(("ulrich", "--bundle", "Sym2Ustar", "--codim", "3"), 0,
                    _json_check(lambda g: [] if g["is_ulrich"] is True else [f"{g}"])),
            Command(("chow", "chi", "--bundle", "U", "--twist", "-2"), 0, _json_check(chi_check)),
            Command(("chow", "ulrich-chern", "--rank", "2"), 0,
                    _json_check(lambda g: checks.check_ulrich_class(2, g))),
            Command(("chow", "pairing", "--rank", str(rank)), 0, _json_is(-rank * rank)),
            Command(("chow", "todd"), 0, _json_is({"1": "1", "h": "1", "l": "8/3", "p": "1"})),
            Command(("quiver", "moduli-dim", "--dim", "2", "2"), 0,
                    _json_is(1 - checks.euler_form((2, 2), (2, 2)))),
            Command(("quiver", "stability", "--matrices", path("stab.json")), 0, _json_check(stab_check)),
            Command(("quiver", "hom-ext", "--matrices", path("hom_a.json"), path("hom_b.json")), 0,
                    _json_check(hom_check)),
            Command(("verify", "paper"), 0, checks.check_verify_output),
            # Malformed inputs: the documented result is exit 1 with one error line.
            Command(("quiver", "hom-ext", "--matrices", path("bad_d.json")), 1, lambda out: []),
            Command(("quiver", "stability", "--matrices", path("bad_A.json")), 1, lambda out: []),
            Command(("quiver", "moduli-dim", "--dim", "-3", "2"), 1, lambda out: []),
        ]

    def run(self, item: Command) -> CliOut:
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, *item.argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return CliOut(proc.returncode, proc.stdout, proc.stderr)

    def run_in_process(self, item: Command) -> CliOut:
        """The same command through ``fanov5.cli.main`` in this process, output captured."""
        from fanov5 import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(item.argv))
            except Exception as exc:  # noqa: BLE001 - a crash is a result here
                code = 1
                err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
        return CliOut(code, out.getvalue(), err.getvalue())

    def failure(self, item: Command, out: CliOut) -> str | None:
        why = checks.cli_failed(item.expected_exit, out.returncode, out.stderr)
        return None if why is None else f"{item}: {why}"

    def check(self, item: Command, out: CliOut) -> list[str]:
        return [f"{item}: {p}" for p in item.check(out.stdout)]


WORKLOADS = {w.name: w for w in (SheafSweep, HomExtQ, StabilityFp, Cli)}


def make(name: str, seed: int, workdir: Path, root: Path):
    """The workload ``name`` with inputs from ``seed``; files go to ``workdir``."""
    return WORKLOADS[name](seed, workdir, root)
