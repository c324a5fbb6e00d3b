"""Command-line front end.

One subcommand per operation family; output is deterministic JSON by
default (sorted keys, no whitespace) or an aligned text table with
``--format table``.  Exit codes: 0 success, 1 usage or domain error,
2 honestly-indeterminate result (an unresolved restriction differential
or an Ulrich verdict that depends on one).

Each leaf command registers its handler on its own subparser as the
``run`` default, so argparse is the only dispatch: ``main`` parses and
returns ``args.run(args)``.  Handlers look library functions up through
their modules (``koszul.restrict_cohomology``) at call time.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Optional, Sequence

from . import bundles, checklist, chow, koszul, quiver
from .linalg import QQ, PrimeField, field_for
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


def _emits(compute: Callable[[argparse.Namespace], Any]) -> Callable[[argparse.Namespace], int]:
    """A leaf handler that emits ``compute(args)`` and exits 0."""

    def run(args) -> int:
        emit(compute(args), args.format)
        return EXIT_OK

    return run


def _chain_json(args) -> dict[str, Any]:
    b = _bundle_from(args)
    chain_start = b.weight + rho(b.n)
    chain = reflection_chain(chain_start)
    return {
        "start": _weight_json(chain_start),
        "steps": [
            {"sigma": s.reflection, "weight": _weight_json(s.weight)} for s in chain.steps
        ],
        "singular": chain.singular,
        "final": _weight_json(chain.final),
        "length": chain.length,
    }


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


def _self_pairing(args) -> int:
    e = chow.ulrich_class(args.rank)
    return chow.euler_pairing(e, e)


def _load_rep(path: str) -> quiver.QuiverRep:
    with open(path, encoding="utf-8") as fh:
        return quiver.QuiverRep.from_json(fh.read())


def _check_hom_ext_size(rep: quiver.QuiverRep) -> None:
    """CliError for a representation beyond ``quiver.HOM_EXT_DIM_CAP`` or, over Q, ``HOM_EXT_BITS_CAP``.

    Over Q the bits counted are those of each denominator, and then those
    of the integers ``hom_ext`` eliminates: the maps times the lcm of their
    denominators.  The denominators go first, so the lcm is only formed
    of small ones.
    """
    if max(rep.d) > quiver.HOM_EXT_DIM_CAP:
        raise CliError(f"hom-ext takes dimensions up to {quiver.HOM_EXT_DIM_CAP}, got d = {list(rep.d)}")
    bits = quiver.HOM_EXT_BITS_CAP
    if rep.field == QQ and (
        any(x.denominator.bit_length() > bits for m in rep.maps for row in m for x in row)
        or any(abs(y).bit_length() > bits for m in quiver._integral(rep.maps) for row in m for y in row)
    ):
        raise CliError(f"hom-ext over Q takes denominators and scaled entries of up to {bits} bits")


def _hom_ext_json(args) -> dict[str, int]:
    if len(args.matrices) not in (1, 2):
        raise CliError("--matrices takes one or two paths")
    reps = [_load_rep(p) for p in args.matrices]
    for rep in reps:
        _check_hom_ext_size(rep)
    h, e = quiver.hom_ext(reps[0], reps[-1])
    return {"hom": h, "ext1": e}


def _stability_json(args) -> dict[str, Any]:
    if args.matrices:
        rep = _load_rep(args.matrices)
    else:
        if args.dim is None or args.field is None:
            raise CliError("stability needs --matrices or --dim with --field")
        field = PrimeField(args.field)
        d = quiver.check_stability_input(field, args.dim)
        rep = quiver.random_rep(d, field, args.seed)
    verdict = quiver.check_stability(rep)
    return {
        "status": verdict.status.value,
        "theta": quiver.theta(rep.d),
        "witness": _witness_json(verdict.witness),
    }


def build_parser() -> Parser:
    parser = Parser(prog="fanov5")
    parser.add_argument("--format", action=_MisplacedFormat, example="bwb --bundle O")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt_parent = Parser(add_help=False)
    fmt_parent.add_argument("--format", choices=("json", "table"), default="json")

    def leaf(group, name: str, run: Callable[[argparse.Namespace], int], **kwargs) -> Parser:
        p = group.add_parser(name, parents=[fmt_parent], **kwargs)
        p.set_defaults(run=run)
        return p

    p = leaf(sub, "bwb", _emits(lambda a: _table_json(bundles.cohomology(_bundle_from(a)))),
             help="ambient cohomology table")
    _add_bundle_flags(p)

    p = leaf(sub, "chain", _emits(_chain_json), help="reflection chain replay")
    _add_bundle_flags(p)

    p = leaf(sub, "restrict", _run_restrict, help="restrict to a linear section")
    _add_bundle_flags(p)
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--assume-generic", action="store_true")

    p = leaf(sub, "ulrich", _run_ulrich, help="vanishing check for all middle twists")
    _add_bundle_flags(p)
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--assume-generic", action="store_true")

    p_chow = sub.add_parser("chow", help="intersection theory on the threefold")
    p_chow.add_argument("--format", action=_MisplacedFormat, example="todd")
    chow_sub = p_chow.add_subparsers(dest="chow_command", required=True)
    p = leaf(chow_sub, "chi", _emits(lambda a: chow.chi(chow.catalog_class(a.bundle), a.twist)))
    p.add_argument("--bundle", required=True, choices=tuple(chow.CATALOG_CLASSES))
    p.add_argument("--twist", type=int, default=0)
    p = leaf(chow_sub, "class", _emits(lambda a: _class_json(chow.catalog_class(a.bundle))))
    p.add_argument("--bundle", required=True, choices=tuple(chow.CATALOG_CLASSES))
    p = leaf(chow_sub, "ulrich-chern", _emits(lambda a: _class_json(chow.ulrich_class(a.rank))))
    p.add_argument("--rank", type=int, required=True)
    p = leaf(chow_sub, "coker", _emits(lambda a: _class_json(chow.coker_class(a.rank))))
    p.add_argument("--rank", type=int, required=True)
    p = leaf(chow_sub, "pairing", _emits(_self_pairing))
    p.add_argument("--rank", type=int, required=True)
    leaf(chow_sub, "todd", _emits(lambda a: dict(zip("1hlp", map(str, chow.todd_v5().coefficients())))))

    p_quiver = sub.add_parser("quiver", help="Kronecker quiver computations")
    p_quiver.add_argument("--format", action=_MisplacedFormat, example="theta --dim 2 1")
    q_sub = p_quiver.add_subparsers(dest="quiver_command", required=True)
    p = leaf(q_sub, "euler-form", _emits(
        lambda a: quiver.euler_form(quiver.dim_vector(a.dim), quiver.dim_vector(a.dim2 or a.dim))
    ))
    p.add_argument("--dim", type=int, nargs=2, required=True)
    p.add_argument("--dim2", type=int, nargs=2)
    p = leaf(q_sub, "theta", _emits(lambda a: quiver.theta(quiver.dim_vector(a.dim))))
    p.add_argument("--dim", type=int, nargs=2, required=True)
    p = leaf(q_sub, "moduli-dim", _emits(lambda a: quiver.moduli_dim(a.dim)))
    p.add_argument("--dim", type=int, nargs=2, required=True)
    p = leaf(q_sub, "hom-ext", _emits(_hom_ext_json))
    p.add_argument("--matrices", nargs="+", required=True, metavar="PATH")
    p = leaf(q_sub, "stability", _emits(_stability_json))
    p.add_argument("--matrices", metavar="PATH")
    p.add_argument("--dim", type=int, nargs=2)
    p.add_argument("--field", type=int)
    p.add_argument("--seed", type=int, default=0)
    p = leaf(q_sub, "random", _emits(
        lambda a: json.loads(quiver.random_rep(a.dim, field_for(a.field), a.seed).to_json())
    ))
    p.add_argument("--dim", type=int, nargs=2, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run the reproduction checklist")
    p.add_argument("suite", choices=("paper",))
    p.set_defaults(run=lambda a: EXIT_OK if checklist.run_all() else EXIT_ERROR)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (CliError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
