"""Command-line front end.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
input error, 3 a resource bound (arity, pivots, walk steps) was exceeded,
4 an internal error (a solver failure other than the pivot cap, a recursion
limit, a polynomial that failed its pointwise check, a declared symmetry
that does not fix its function, a broken internal assertion), reported as
one ``internal error: ...`` line on stderr.
Reports are deterministic for fixed seeds and inputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import approxdeg, linprog, measures, noisy, verify
from .functions import (
    ArityLimitError,
    PartialFn,
    load_function,
    zoo_function,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def parse_zoo_item(item: str) -> tuple[str, PartialFn]:
    """``name:param[:param...]`` -> (label, function)."""
    parts = item.strip().split(":")
    name, params = parts[0], parts[1:]
    try:
        return item.strip(), zoo_function(name, *(int(p) for p in params))
    except ArityLimitError:
        raise
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad zoo spec {item!r}: {exc}") from exc


def load_file_item(path: str) -> tuple[str, PartialFn]:
    """Function spec file -> (path, function); a file that cannot be read or
    does not hold a valid spec is a usage error."""
    try:
        return path, load_function(path)
    except ArityLimitError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load {path}: {exc}") from exc


def parse_function_arg(item: str) -> tuple[str, PartialFn]:
    """A zoo spec if it holds a colon, else a function spec file."""
    return parse_zoo_item(item) if ":" in item else load_file_item(item)


def gather_functions(args) -> list[tuple[str, PartialFn]]:
    out = []
    if args.zoo:
        for item in args.zoo.split(","):
            if item.strip():
                out.append(parse_zoo_item(item))
    for path in args.file or []:
        out.append(load_file_item(path))
    return out


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: verify.VerificationReport, args) -> int:
    _emit(report.to_json() if args.out == "json" else report.to_text(), args)
    return report.exit_code


# -- subcommands ------------------------------------------------------------

def cmd_measures(args) -> int:
    functions = gather_functions(args)
    reports = [
        measures.measure_function(f, name=name, max_arity=args.max_arity)
        for name, f in functions
    ]
    if args.out == "json":
        _emit(measures.reports_to_json(reports), args)
    else:
        _emit(measures.reports_to_csv(reports), args)
    return EXIT_OK


def cmd_verify_bs_chain(args) -> int:
    f_name, f = parse_function_arg(args.f)
    g_name, g = parse_function_arg(args.g)
    report = verify.verify_bs_chain(
        f, g, eps=args.eps, f_name=f_name, g_name=g_name, max_arity=args.max_arity
    )
    return _emit_report(report, args)


def cmd_verify_pror(args) -> int:
    inner = [parse_zoo_item(item) for item in args.inner.split(",") if item.strip()]
    if not inner:
        raise UsageError("need at least one inner function")
    report = verify.verify_pror(
        [f for _, f in inner],
        [name for name, _ in inner],
        eps=args.eps,
        max_arity=args.max_arity,
    )
    return _emit_report(report, args)


def cmd_verify_symmetric(args) -> int:
    report = verify.verify_symmetric(n_max=args.n_max, eps=args.eps)
    return _emit_report(report, args)


def cmd_verify_walks(args) -> int:
    report = verify.verify_walks(seed=args.seed)
    return _emit_report(report, args)


def cmd_simulate(args) -> int:
    name, f = parse_function_arg(args.f)
    report = verify.simulate_suite(
        f, t=args.t, trials=args.trials, seed=args.seed, f_name=name
    )
    if args.transcript:
        _write_example_transcript(f, args)
    return _emit_report(report, args)


def _write_example_transcript(f: PartialFn, args) -> None:
    """One fully logged trial at the noisy level, for exact replay."""
    rng = np.random.default_rng(args.seed)
    x = next(iter(f.domain()))
    bits = [(x >> i) & 1 for i in range(f.arity)]
    oracle = noisy.NoisyOracle(bits, rng, record=True)
    alg = noisy.MajorityVoteAlgorithm(f, 1.0 / np.sqrt(args.t), 9 * args.t + 1)
    output = alg.run(oracle)
    text = noisy.format_transcript(oracle.transcript)
    text += f"summary input={x} output={output} cost={oracle.cost:.9g} seed={args.seed}\n"
    with open(args.transcript, "w") as fh:
        fh.write(text)


def cmd_sink_poly(args) -> int:
    report, poly = verify.sink_poly_suite(args.k, eps=args.eps)
    if args.witness:
        with open(args.witness, "w") as fh:
            fh.write(poly.serialize())
    return _emit_report(report, args)


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfclab",
        description="Boolean function complexity laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out="text", eps=False, seed=False, max_arity=None):
        p.add_argument("--out", choices=(out, "json"), default=out)
        p.add_argument("--output", help="write to this file instead of stdout")
        if max_arity is not None:
            p.add_argument("--max-arity", type=int, default=max_arity)
        if eps:
            p.add_argument("--eps", type=float, default=approxdeg.DEFAULT_EPS)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("measures", help="measure table for zoo or file functions")
    p.add_argument("--zoo", default="", help="comma list like or:4,sink:4")
    p.add_argument("--file", action="append", help="function spec file (repeatable)")
    common(p, out="csv", max_arity=measures.DEFAULT_SEARCH_ARITY)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("verify-bs-chain", help="block-sensitivity degree chain")
    p.add_argument("--f", required=True, help="outer function (zoo spec or file)")
    p.add_argument("--g", required=True, help="inner function (zoo spec or file)")
    common(p, eps=True, max_arity=12)
    p.set_defaults(func=cmd_verify_bs_chain)

    p = sub.add_parser("verify-pror", help="promise-OR composition study")
    p.add_argument("--inner", required=True, help="comma list of inner functions")
    common(p, eps=True, max_arity=12)
    p.set_defaults(func=cmd_verify_pror)

    p = sub.add_parser("verify-symmetric", help="symmetric flip-distance band")
    p.add_argument("--n-max", type=int, default=8)
    common(p, eps=True)
    p.set_defaults(func=cmd_verify_symmetric)

    p = sub.add_parser("verify-walks", help="walk generator checks")
    common(p, seed=True)
    p.set_defaults(func=cmd_verify_walks)

    p = sub.add_parser("simulate", help="compiled run on gap-majority inputs")
    p.add_argument("--f", required=True, help="outer function (zoo spec or file)")
    p.add_argument("--t", type=int, required=True, help="inner gap-majority arity")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--transcript", help="write one fully logged trial here")
    common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sink-poly", help="constructive sink approximation")
    p.add_argument("--k", type=int, required=True, help="number of vertices")
    p.add_argument("--witness", help="write the polynomial witness here")
    common(p, eps=True)
    p.set_defaults(func=cmd_sink_poly)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArityLimitError, linprog.IterationLimitExceeded,
            noisy.WalkStepCapExceeded) as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (linprog.SimplexError, RecursionError,
            approxdeg.PolynomialVerificationError, AssertionError) as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
