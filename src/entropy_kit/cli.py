"""Command line front end.

Subcommands: ``entropy`` (evaluate the family on a distribution or a
density-matrix file), ``check`` (run verification suites), ``stability``
(closed-form stability-ratio sweeps over dimension), ``bounds``
(tabulate continuity bounds over a trace-distance grid).

Numbers in text and CSV output carry 12 significant digits.  JSON mode
emits one document per line for ``check`` and a single document
otherwise.  The ``ENTROPY_KIT_SEED`` environment variable supplies the
default seed when ``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import (
    BoundSpec,
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
from .errors import EntropyKitError
from .linops import ProbabilityDistribution, read_density
from .verify import ALL_CHECKS, StabilityExample, report_ok, run_check, stability_ratio

SEED_ENV = "ENTROPY_KIT_SEED"

BOUND_NAMES = (
    "fannes_tsallis_low_q",
    "fannes_tsallis_high_q",
    "unified_fannes",
    "lipschitz",
    "max_unified",
)


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
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(SEED_ENV, "0"))


def _add_format_flags(sub) -> None:
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON")
    fmt.add_argument("--csv", action="store_true", help="emit CSV")
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def cmd_entropy(args) -> int:
    params = UnifiedParams(args.q, args.s)
    if args.dist is not None:
        spectrum = ProbabilityDistribution(_comma_floats(args.dist))
        source, limit, unified = "dist", "shannon", unified_classical
    else:
        spectrum = read_density(args.rho)
        source, limit, unified = "rho", "von_neumann", unified_quantum
    values = {"unified": unified(spectrum, params)}
    if args.all:
        values["renyi"] = renyi(spectrum, args.q)
        values["tsallis"] = tsallis(spectrum, args.q)
        values["type_q"] = type_q_entropy(spectrum, args.q)
        values[limit] = renyi(spectrum, 1.0)
    if args.json:
        doc = {"q": args.q, "s": args.s, "source": source}
        doc.update(values)
        _emit(args, json.dumps(doc))
    elif args.csv:
        lines = ["name,value"] + [f"{k},{_fmt(v)}" for k, v in values.items()]
        _emit(args, "\n".join(lines))
    elif args.all:
        width = max(len(k) for k in values)
        _emit(args, "\n".join(f"{k:<{width}}  {_fmt(v)}" for k, v in values.items()))
    else:
        _emit(args, _fmt(values["unified"]))
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
    reports = [
        run_check(name, trials=args.trials, seed=seed, dims=args.dims, params_grid=grid)
        for name in names
    ]
    all_ok = all(report_ok(r) for r in reports)
    if args.json:
        _emit(args, "\n".join(r.to_json() for r in reports))
    elif args.csv:
        lines = ["check,trials,skipped,failures,max_violation,seed"]
        lines += [
            f"{r.check},{r.trials},{r.skipped},{r.failures},{_fmt(r.max_violation)},{r.seed}"
            for r in reports
        ]
        _emit(args, "\n".join(lines))
    else:
        lines = []
        for r in reports:
            if r.comparisons == 0:
                marker = "no comparisons"
            else:
                marker = "pass" if report_ok(r) else "FAIL"
            lines.append(
                f"{r.check}: trials={r.trials} skipped={r.skipped} "
                f"failures={r.failures} max_violation={_fmt(r.max_violation)} [{marker}]"
            )
        lines.append("all checks passed" if all_ok else "some checks FAILED")
        _emit(args, "\n".join(lines))
    return 0 if all_ok else 1


def cmd_stability(args) -> int:
    variant = f"example{args.example}"
    rows = []
    for d in args.dims:
        ex = StabilityExample(variant, args.eps, d, args.q, args.s)
        rows.append((d, stability_ratio(ex)))
    if args.json:
        doc = {
            "example": variant,
            "q": args.q,
            "s": args.s,
            "eps": args.eps,
            "rows": [{"d": d, "ratio": r} for d, r in rows],
        }
        _emit(args, json.dumps(doc))
    elif args.csv:
        _emit(args, "\n".join(["d,ratio"] + [f"{d},{_fmt(r)}" for d, r in rows]))
    else:
        lines = [f"{variant}  q={_fmt(args.q)}  s={_fmt(args.s)}  eps={_fmt(args.eps)}"]
        lines += [f"{d:<12d} {_fmt(r)}" for d, r in rows]
        _emit(args, "\n".join(lines))
    return 0


def _bound_value(name: str, q: float, s: float, d: int, eps: float):
    if name == "fannes_tsallis_low_q":
        return fannes_tsallis_low_q(BoundSpec(q, s, d, eps))
    if name == "fannes_tsallis_high_q":
        return fannes_tsallis_high_q(BoundSpec(q, s, d, eps))
    if name == "unified_fannes":
        return unified_fannes_bound(BoundSpec(q, s, d, eps))
    if name == "lipschitz":
        return lipschitz_bound(eps, q, s)
    return max_unified(q, s, d)


def cmd_bounds(args) -> int:
    UnifiedParams(args.q, args.s)  # a bad index is an error, not a table of nan
    rows = []
    for eps in args.eps:
        for name in BOUND_NAMES:
            try:
                value = _bound_value(name, args.q, args.s, args.d, eps)
                valid = True
            except EntropyKitError:
                value, valid = None, False
            rows.append((eps, name, value, valid))
    if args.json:
        doc = {
            "q": args.q,
            "s": args.s,
            "d": args.d,
            "rows": [
                {"eps": e, "bound": n, "value": v, "valid": ok}
                for e, n, v, ok in rows
            ],
        }
        _emit(args, json.dumps(doc))
    elif args.csv:
        lines = ["eps,bound,value,valid"]
        lines += [
            f"{_fmt(e)},{n},{'' if v is None else _fmt(v)},{str(ok).lower()}"
            for e, n, v, ok in rows
        ]
        _emit(args, "\n".join(lines))
    else:
        lines = [f"q={_fmt(args.q)}  s={_fmt(args.s)}  d={args.d}"]
        for e, n, v, ok in rows:
            shown = _fmt(v) if ok else "out-of-validity"
            lines.append(f"eps={_fmt(e):<8} {n:<22} {shown}")
        _emit(args, "\n".join(lines))
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
