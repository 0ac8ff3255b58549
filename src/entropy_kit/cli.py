"""Command line front end.

Subcommands: ``entropy`` (evaluate the family on a distribution or a
density-matrix file), ``check`` (run verification suites), ``stability``
(closed-form stability-ratio sweeps over dimension), ``bounds``
(tabulate continuity bounds over a trace-distance grid).

Every command writes through ``_render``: one JSON document (one per line
for ``check``), or a CSV header and rows of ``_cell``s, or a text layout of
its own; numbers in text and CSV carry 12 significant digits.  A value
that leaves the float range is null in JSON, blank in CSV and
``out-of-float-range`` in text.  The ``ENTROPY_KIT_SEED`` environment
variable supplies the default seed when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import (
    BoundSpec,
    _check_eps,
    fannes_tsallis_high_q,
    fannes_tsallis_low_q,
    lipschitz_bound,
    max_unified,
    unified_fannes_bound,
)
from .entropies import (
    UnifiedParams,
    renyi,
    tsallis,
    type_q_entropy,
    unified_classical,
    unified_quantum,
)
from .errors import DomainError, EntropyKitError, FloatRange
from .linops import ProbabilityDistribution, _dimension, read_density
from .verify import ALL_CHECKS, StabilityExample, _checked_inputs, report_ok, run_check, stability_ratio

SEED_ENV = "ENTROPY_KIT_SEED"

#: each ``bounds`` row, in table order: its name and its value at (q, s, d, eps)
BOUNDS = {
    "fannes_tsallis_low_q": lambda q, s, d, eps: fannes_tsallis_low_q(BoundSpec(q, s, d, eps)),
    "fannes_tsallis_high_q": lambda q, s, d, eps: fannes_tsallis_high_q(BoundSpec(q, s, d, eps)),
    "unified_fannes": lambda q, s, d, eps: unified_fannes_bound(BoundSpec(q, s, d, eps)),
    "lipschitz": lambda q, s, d, eps: lipschitz_bound(eps, q, s),
    "max_unified": lambda q, s, d, eps: max_unified(q, s, d),
}


#: how text output shows a value that leaves the float range
BEYOND_RANGE = "out-of-float-range"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _comma_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _comma_ints(text: str) -> list[int]:
    """Positive integers; scientific notation is accepted when it names an
    integer exactly (1e6), fractions and non-finite values are not."""
    out = []
    for x in text.split(","):
        if x.strip() == "":
            continue
        try:
            val = int(x)
        except ValueError:
            num = float(x)
            if not num.is_integer():
                raise argparse.ArgumentTypeError(f"dimension {x!r} is not an integer")
            val = int(num)
        if val < 1:
            raise argparse.ArgumentTypeError(f"dimension {x!r} is not positive")
        out.append(val)
    return out


def _trial_count(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"trial count {text!r} is not an integer") from None
    if val < 0:
        raise argparse.ArgumentTypeError(f"trial count {text!r} is negative")
    return val


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise DomainError(f"cannot write {args.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    """One CSV cell: blank for None, true/false for a bool, ``_fmt`` for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return _fmt(value) if isinstance(value, float) else str(value)


def _render(args, doc: str, columns, rows, lines) -> None:
    """The one output path: the JSON text ``doc``, or a CSV header of
    ``columns`` and one line of cells per row, or the text ``lines``."""
    if args.json:
        text = doc
    elif args.csv:
        text = "\n".join([",".join(columns)] + [",".join(map(_cell, row)) for row in rows])
    else:
        text = "\n".join(lines)
    _emit(args, text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get(SEED_ENV, "0")
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{SEED_ENV} must be an integer, got {text!r}") from None


def _add_format_flags(sub) -> None:
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--csv", action="store_true", help="emit CSV")
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def cmd_entropy(args) -> int:
    params = UnifiedParams(args.q, args.s)
    if args.dist is not None:
        try:
            probs = _comma_floats(args.dist)
        except ValueError:
            raise DomainError(f"--dist takes comma-separated numbers, got {args.dist!r}") from None
        spectrum = ProbabilityDistribution(probs)
        source, limit, unified = "dist", "shannon", unified_classical
    else:
        spectrum = read_density(args.rho)
        source, limit, unified = "rho", "von_neumann", unified_quantum
    values = {"unified": unified(spectrum, params)}
    lines = [_fmt(values["unified"])]
    if args.all:
        extras = {
            "renyi": (renyi, args.q),
            "tsallis": (tsallis, args.q),
            "type_q": (type_q_entropy, args.q),
            limit: (renyi, 1.0),
        }
        for name, (entropy, q) in extras.items():
            try:
                values[name] = entropy(spectrum, q)
            except FloatRange:  # shown as missing, as in the bounds table
                values[name] = None
        width = max(len(k) for k in values)
        lines = [f"{k:<{width}}  {BEYOND_RANGE if v is None else _fmt(v)}" for k, v in values.items()]
    doc = {"q": args.q, "s": args.s, "source": source, **values}
    _render(args, json.dumps(doc), ("name", "value"), values.items(), lines)
    return 0


def _check_grid(args):
    if args.q_grid is None and args.s_grid is None:
        return None
    if args.q_grid is None or args.s_grid is None:
        raise EntropyKitError("--q-grid and --s-grid must be given together")
    return [(q, s) for q in args.q_grid for s in args.s_grid]


def cmd_check(args) -> int:
    seed = _resolve_seed(args)
    grid = _check_grid(args)
    names = ALL_CHECKS if args.suite == "all" else (args.suite,)
    for name in names:  # so a bad input stops the run before any suite runs
        _checked_inputs(name, args.trials, seed, args.dims)
    reports = [
        run_check(name, trials=args.trials, seed=seed, dims=args.dims, params_grid=grid)
        for name in names
    ]
    columns = ("check", "trials", "skipped", "failures", "max_violation", "seed")
    rows = [[d[c] for c in columns] for d in (r.to_dict() for r in reports)]
    oks = [report_ok(r) for r in reports]
    lines = []
    for r, ok in zip(reports, oks):
        marker = "no comparisons" if r.comparisons == 0 else "pass" if ok else "FAIL"
        lines.append(
            f"{r.check}: trials={r.trials} skipped={r.skipped} "
            f"failures={r.failures} max_violation={_fmt(r.max_violation)} [{marker}]"
        )
    lines.append("all checks passed" if all(oks) else "some checks FAILED")
    _render(args, "\n".join(r.to_json() for r in reports), columns, rows, lines)
    return 0 if all(oks) else 1


def cmd_stability(args) -> int:
    variant = f"example{args.example}"
    rows = [
        (d, stability_ratio(StabilityExample(variant, args.eps, d, args.q, args.s)))
        for d in args.dims
    ]
    columns = ("d", "ratio")
    doc = {"example": variant, "q": args.q, "s": args.s, "eps": args.eps}
    doc["rows"] = [dict(zip(columns, row)) for row in rows]
    lines = [f"{variant}  q={_fmt(args.q)}  s={_fmt(args.s)}  eps={_fmt(args.eps)}"]
    lines += [f"{d:<12d} {_fmt(r)}" for d, r in rows]
    _render(args, json.dumps(doc), columns, rows, lines)
    return 0


def cmd_bounds(args) -> int:
    # a bad index, dimension or trace distance is an error, not a table of nan
    UnifiedParams(args.q, args.s)
    _dimension(args.d)
    for eps in args.eps:
        _check_eps(eps)
    rows = []
    for eps in args.eps:
        for name, bound in BOUNDS.items():
            try:
                value, valid = bound(args.q, args.s, args.d, eps), True
            except FloatRange:  # inside the bound's region, beyond the float range
                value, valid = None, True
            except EntropyKitError:
                value, valid = None, False
            rows.append((eps, name, value, valid))
    columns = ("eps", "bound", "value", "valid")
    doc = {"q": args.q, "s": args.s, "d": args.d, "rows": [dict(zip(columns, row)) for row in rows]}
    lines = [f"q={_fmt(args.q)}  s={_fmt(args.s)}  d={args.d}"]
    for e, n, v, ok in rows:
        shown = "out-of-validity" if not ok else BEYOND_RANGE if v is None else _fmt(v)
        lines.append(f"eps={_fmt(e):<8} {n:<22} {shown}")
    _render(args, json.dumps(doc), columns, rows, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropy-kit",
        description="Unified (q, s)-entropies, continuity bounds and verification suites.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_ent = subs.add_parser("entropy", help="evaluate the entropy family")
    src = p_ent.add_mutually_exclusive_group(required=True)
    src.add_argument("--dist", help="comma-separated probabilities")
    src.add_argument("--rho", help='path to a density matrix JSON file {"d","re","im"}')
    p_ent.add_argument("--q", type=float, required=True)
    p_ent.add_argument("--s", type=float, required=True)
    p_ent.add_argument("--all", action="store_true", help="also print Renyi, Tsallis, type-q and the q=1 entropy")
    _add_format_flags(p_ent)
    p_ent.set_defaults(func=cmd_entropy)

    p_chk = subs.add_parser("check", help="run verification suites")
    p_chk.add_argument("suite", choices=ALL_CHECKS + ("all",))
    p_chk.add_argument("--trials", type=_trial_count, default=200)
    p_chk.add_argument("--seed", type=int, default=None, help=f"defaults to ${SEED_ENV} or 0")
    p_chk.add_argument("--dims", type=_comma_ints, default=None, help="system dimensions, comma-separated")
    p_chk.add_argument("--q-grid", type=_comma_floats, default=None)
    p_chk.add_argument("--s-grid", type=_comma_floats, default=None)
    _add_format_flags(p_chk)
    p_chk.set_defaults(func=cmd_check)

    p_sta = subs.add_parser("stability", help="stability-ratio sweep over dimension")
    p_sta.add_argument("--example", type=int, choices=(0, 1), required=True)
    p_sta.add_argument("--q", type=float, required=True)
    p_sta.add_argument("--s", type=float, required=True)
    p_sta.add_argument("--eps", type=float, required=True)
    p_sta.add_argument(
        "--dims", type=_comma_ints, default=[10, 1000, 1000000],
        help="dimensions to sweep, comma-separated (scientific notation accepted)",
    )
    _add_format_flags(p_sta)
    p_sta.set_defaults(func=cmd_stability)

    p_bnd = subs.add_parser("bounds", help="tabulate continuity bounds over eps")
    p_bnd.add_argument("--q", type=float, required=True)
    p_bnd.add_argument("--s", type=float, required=True)
    p_bnd.add_argument("--d", type=int, required=True)
    p_bnd.add_argument(
        "--eps", type=_comma_floats, default=[0.0, 0.01, 0.05, 0.1, 0.2],
        help="trace-distance grid, comma-separated",
    )
    _add_format_flags(p_bnd)
    p_bnd.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EntropyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
