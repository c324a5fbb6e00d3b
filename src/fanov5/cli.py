"""Command-line front end.

One subcommand per operation family; output is deterministic JSON by
default (sorted keys, no whitespace) or an aligned text table with
``--format table``.  Exit codes: 0 success, 1 usage or domain error,
2 honestly-indeterminate result (an unresolved restriction differential
or an Ulrich verdict that depends on one).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from . import bundles, checklist, chow, koszul, quiver
from .linalg import PrimeField, field_for
from .weights import reflection_chain, rho

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INDETERMINATE = 2


class CliError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved here, so route
    # usage problems through the normal error path instead.
    def error(self, message):
        raise CliError(message)


class _MisplacedFormat(argparse.Action):
    """``--format`` given before the leaf command: say where it goes instead."""

    def __init__(self, example: str, **kwargs):
        super().__init__(default=argparse.SUPPRESS, help=argparse.SUPPRESS, **kwargs)
        self.example = example

    def __call__(self, parser, namespace, values, option_string=None):
        raise CliError(
            f"--format goes after the leaf command, for example `{parser.prog} {self.example} --format table`"
        )


def _weight_json(w) -> list[int]:
    return list(w.coeffs)


def _table_json(table: bundles.CohomologyTable) -> dict[str, Any]:
    out: dict[str, Any] = {"h": {str(deg): e.dim for deg, e in table.entries}}
    hw = [e.highest_weight for _, e in table.entries if e.highest_weight is not None]
    if len(hw) == 1:
        out["highest_weight"] = hw[0].describe()
    return out


def _page_json(page: koszul.KoszulPage) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for (p, q), dim in page.terms:
        out.setdefault(str(p), {})[str(q)] = dim
    return out


def _class_json(b: chow.BundleClass) -> dict[str, int]:
    return {"rank": b.rank, "c1": b.c1, "c2": b.c2, "c3": b.c3}


def _witness_json(w: Optional[quiver.SubrepWitness]) -> Any:
    if w is None:
        return None
    return {
        "basis1": [list(row) for row in w.basis1],
        "basis2": [list(row) for row in w.basis2],
        "dims": list(w.dims),
        "theta": w.theta,
    }


def _flatten(value: Any, path: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        if not value:
            rows.append((path or ".", "{}"))
        for k in sorted(value, key=str):
            _flatten(value[k], f"{path}.{k}" if path else str(k), rows)
    elif isinstance(value, list):
        if value and all(isinstance(v, (dict, list)) and v for v in value):
            for i, v in enumerate(value):
                _flatten(v, f"{path}.{i}" if path else str(i), rows)
        else:
            rows.append((path or ".", " ".join(json.dumps(v) for v in value) or "[]"))
    else:
        rows.append((path or ".", json.dumps(value)))


def emit(value: Any, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(value, sort_keys=True, separators=(",", ":")))
        return
    if isinstance(value, (int, str)) or value is None:
        print(json.dumps(value))
        return
    rows: list[tuple[str, str]] = []
    _flatten(value, "", rows)
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        print(f"{k.ljust(width)}  {v}")


def _bundle_from(args) -> bundles.EquivariantBundle:
    return bundles.twist(bundles.catalog(args.bundle), args.twist)


def _add_bundle_flags(p: Parser) -> None:
    p.add_argument("--bundle", required=True, choices=bundles.CATALOG_NAMES)
    p.add_argument("--twist", type=int, default=0)


def build_parser() -> Parser:
    parser = Parser(prog="fanov5")
    parser.add_argument("--format", action=_MisplacedFormat, example="bwb --bundle O")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_parent = Parser(add_help=False)
    fmt_parent.add_argument("--format", choices=("json", "table"), default="json")

    p_bwb = sub.add_parser("bwb", parents=[fmt_parent], help="ambient cohomology table")
    _add_bundle_flags(p_bwb)

    p_chain = sub.add_parser("chain", parents=[fmt_parent], help="reflection chain replay")
    _add_bundle_flags(p_chain)

    p_restrict = sub.add_parser("restrict", parents=[fmt_parent], help="restrict to a linear section")
    _add_bundle_flags(p_restrict)
    p_restrict.add_argument("--codim", type=int, required=True)
    p_restrict.add_argument("--assume-generic", action="store_true")

    p_ulrich = sub.add_parser("ulrich", parents=[fmt_parent], help="vanishing check for all middle twists")
    _add_bundle_flags(p_ulrich)
    p_ulrich.add_argument("--codim", type=int, required=True)
    p_ulrich.add_argument("--assume-generic", action="store_true")

    p_chow = sub.add_parser("chow", help="intersection theory on the threefold")
    p_chow.add_argument("--format", action=_MisplacedFormat, example="todd")
    chow_sub = p_chow.add_subparsers(dest="chow_command", required=True)
    pc = chow_sub.add_parser("chi", parents=[fmt_parent])
    pc.add_argument("--bundle", required=True, choices=tuple(chow.CATALOG_CLASSES))
    pc.add_argument("--twist", type=int, default=0)
    pc = chow_sub.add_parser("class", parents=[fmt_parent])
    pc.add_argument("--bundle", required=True, choices=tuple(chow.CATALOG_CLASSES))
    pc = chow_sub.add_parser("ulrich-chern", parents=[fmt_parent])
    pc.add_argument("--rank", type=int, required=True)
    pc = chow_sub.add_parser("coker", parents=[fmt_parent])
    pc.add_argument("--rank", type=int, required=True)
    pc = chow_sub.add_parser("pairing", parents=[fmt_parent])
    pc.add_argument("--rank", type=int, required=True)
    chow_sub.add_parser("todd", parents=[fmt_parent])

    p_quiver = sub.add_parser("quiver", help="Kronecker quiver computations")
    p_quiver.add_argument("--format", action=_MisplacedFormat, example="theta --dim 2 1")
    q_sub = p_quiver.add_subparsers(dest="quiver_command", required=True)
    pq = q_sub.add_parser("euler-form", parents=[fmt_parent])
    pq.add_argument("--dim", type=int, nargs=2, required=True)
    pq.add_argument("--dim2", type=int, nargs=2)
    pq = q_sub.add_parser("theta", parents=[fmt_parent])
    pq.add_argument("--dim", type=int, nargs=2, required=True)
    pq = q_sub.add_parser("moduli-dim", parents=[fmt_parent])
    pq.add_argument("--dim", type=int, nargs=2, required=True)
    pq = q_sub.add_parser("hom-ext", parents=[fmt_parent])
    pq.add_argument("--matrices", nargs="+", required=True, metavar="PATH")
    pq = q_sub.add_parser("stability", parents=[fmt_parent])
    pq.add_argument("--matrices", metavar="PATH")
    pq.add_argument("--dim", type=int, nargs=2)
    pq.add_argument("--field", type=int)
    pq.add_argument("--seed", type=int, default=0)
    pq = q_sub.add_parser("random", parents=[fmt_parent])
    pq.add_argument("--dim", type=int, nargs=2, required=True)
    pq.add_argument("--field", required=True)
    pq.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="run the reproduction checklist")
    p_verify.add_argument("suite", choices=("paper",))

    return parser


def _run_bwb(args) -> int:
    table = bundles.cohomology(_bundle_from(args))
    emit(_table_json(table), args.format)
    return EXIT_OK


def _run_chain(args) -> int:
    b = _bundle_from(args)
    chain_start = b.weight + rho(b.n)
    chain = reflection_chain(chain_start)
    payload = {
        "start": _weight_json(chain_start),
        "steps": [
            {"sigma": s.reflection, "weight": _weight_json(s.weight)} for s in chain.steps
        ],
        "singular": chain.singular,
        "final": _weight_json(chain.final),
        "length": chain.length,
    }
    emit(payload, args.format)
    return EXIT_OK


def _run_restrict(args) -> int:
    res = koszul.restrict_cohomology(_bundle_from(args), args.codim, args.assume_generic)
    payload: dict[str, Any] = {
        "codim": args.codim,
        "page": _page_json(res.page),
        "status": res.status.value,
    }
    if res.table is not None:
        payload["h"] = {str(deg): e.dim for deg, e in res.table.entries}
    emit(payload, args.format)
    return EXIT_OK if res.resolved else EXIT_INDETERMINATE


def _run_ulrich(args) -> int:
    verdict = koszul.ulrich_check(_bundle_from(args), args.codim, assume_generic=args.assume_generic)
    payload = {
        "bundle": args.bundle,
        "codim": args.codim,
        "is_ulrich": verdict.is_ulrich,
        "witness": None
        if verdict.witness is None
        else {"twist": verdict.witness[0], "degree": verdict.witness[1]},
    }
    emit(payload, args.format)
    return EXIT_INDETERMINATE if verdict.is_ulrich is None else EXIT_OK


def _run_chow(args) -> int:
    cmd = args.chow_command
    if cmd == "chi":
        emit(chow.chi(chow.catalog_class(args.bundle), args.twist), args.format)
    elif cmd == "class":
        emit(_class_json(chow.catalog_class(args.bundle)), args.format)
    elif cmd == "ulrich-chern":
        emit(_class_json(chow.ulrich_class(args.rank)), args.format)
    elif cmd == "coker":
        emit(_class_json(chow.coker_class(args.rank)), args.format)
    elif cmd == "pairing":
        e = chow.ulrich_class(args.rank)
        emit(chow.euler_pairing(e, e), args.format)
    elif cmd == "todd":
        td = chow.todd_v5()
        emit(
            {"1": str(td.a0), "h": str(td.a1), "l": str(td.a2), "p": str(td.a3)},
            args.format,
        )
    return EXIT_OK


def _load_rep(path: str) -> quiver.QuiverRep:
    with open(path, encoding="utf-8") as fh:
        return quiver.QuiverRep.from_json(fh.read())


def _run_quiver(args) -> int:
    cmd = args.quiver_command
    if cmd == "euler-form":
        a = quiver.dim_vector(args.dim)
        b = quiver.dim_vector(args.dim2) if args.dim2 else a
        emit(quiver.euler_form(a, b), args.format)
    elif cmd == "theta":
        emit(quiver.theta(quiver.dim_vector(args.dim)), args.format)
    elif cmd == "moduli-dim":
        emit(quiver.moduli_dim(args.dim), args.format)
    elif cmd == "hom-ext":
        if len(args.matrices) not in (1, 2):
            raise CliError("--matrices takes one or two paths")
        reps = [_load_rep(p) for p in args.matrices]
        if len(reps) == 1:
            reps = [reps[0], reps[0]]
        h, e = quiver.hom_ext(*reps)
        emit({"hom": h, "ext1": e}, args.format)
    elif cmd == "stability":
        if args.matrices:
            rep = _load_rep(args.matrices)
        else:
            if args.dim is None or args.field is None:
                raise CliError("stability needs --matrices or --dim with --field")
            field = PrimeField(args.field)
            d = quiver.check_stability_input(field, args.dim)
            rep = quiver.random_rep(d, field, args.seed)
        verdict = quiver.check_stability(rep)
        emit(
            {
                "status": verdict.status.value,
                "theta": quiver.theta(rep.d),
                "witness": _witness_json(verdict.witness),
            },
            args.format,
        )
    elif cmd == "random":
        rep = quiver.random_rep(args.dim, field_for(args.field), args.seed)
        emit(json.loads(rep.to_json()), args.format)
    return EXIT_OK


def _run_verify(args) -> int:
    ok = checklist.run_all()
    return EXIT_OK if ok else EXIT_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "bwb": _run_bwb,
            "chain": _run_chain,
            "restrict": _run_restrict,
            "ulrich": _run_ulrich,
            "chow": _run_chow,
            "quiver": _run_quiver,
            "verify": _run_verify,
        }[args.command]
        return handler(args)
    except (CliError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
