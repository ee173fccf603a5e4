"""Command-line surface and verification drivers.

Exit codes: 0 success / all verdicts pass, 1 verification mismatch,
2 invalid input, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import budget, store
from .budget import Budget, BudgetError, HEAVY_BUDGET
from .glrep import coinvariant_class_nonzero, coinvariant_classes, invariant_basis
from .hit import cohit_basis, reduce_degree_chain
from .homology import dual_sq, primitive_basis, zeta_element
from .lambda_algebra import (
    differential,
    homology_dim,
    normal_form,
    parse_lambda_element,
)
from .reports import VerdictReport, emit_report
from .steenrod import alpha, generic_degree, mu
from .transfer import class_equal, label_dictionary, psi, transfer_report


def _generic4_degree(t: int, s: int, u: int) -> int:
    return (1 << (t + s + u)) + (1 << (t + s)) + (1 << t) - 3


def _rank5_degree(t: int) -> int:
    return generic_degree(5, t, 50).value


def thm21_expected(t: int, s: int, u: int) -> tuple[int, str | None]:
    """Dimension table of the rank-4 coinvariants in the generic degrees.

    Returns (dimension, zeta family) with the family naming the asserted
    generator when the dimension is one.
    """
    if t < 1 or s < 1 or u < 1:
        raise ValueError("the table needs t, s, u >= 1")
    if u == 1:
        if s == 1 or s >= 3:
            return 0, None
        return (1, "B") if t == 1 else (0, None)  # s == 2
    if s == 1:
        if u == 2:
            return (0, None) if t == 1 else (1, "A")
        return 0, None  # u >= 3
    if t == 1:
        return (1, "B") if s == 2 else (0, None)
    return 1, "C"  # s >= 2, u >= 2, t >= 2


def _zeta_for(family: str, t: int, s: int, u: int):
    if family == "A":
        return zeta_element("A", t, 1, 2)
    if family == "B":
        return zeta_element("B", 1, 2, u)
    return zeta_element("C", t, s, u)


class _Ctx:
    def __init__(self, args: argparse.Namespace):
        budget.configure(
            Budget.from_mb(args.budget_mb)
            if args.budget_mb is not None
            else HEAVY_BUDGET
            if args.allow_heavy
            else None
        )
        self.allow_heavy = args.allow_heavy
        store.configure(None if args.no_cache else store.cache_dir(args.cache_dir))
        self.fmt = "json" if args.json else "csv" if args.csv else "text"

    def require_heavy(self, what: str) -> None:
        if not self.allow_heavy:
            raise BudgetError(
                f"{what} is a heavy computation; rerun with --allow-heavy"
            )


# -- query commands ---------------------------------------------------------------


def _cmd_alpha(args, ctx) -> int:
    print(alpha(args.value))
    return 0


def _cmd_mu(args, ctx) -> int:
    print(mu(args.value))
    return 0


def _cmd_cohit(args, ctx: _Ctx) -> int:
    basis = cohit_basis(args.n, args.d)
    print(f"dimension {basis.dimension}")
    if args.basis:
        for m in basis.representatives:
            print(str(m))
    chain = reduce_degree_chain(args.n, args.d)
    if len(chain) > 1:
        print(f"reduction chain: {' -> '.join(str(x) for x in chain)}")
    return 0


def _cmd_primitives(args, ctx: _Ctx) -> int:
    basis = primitive_basis(args.n, args.d)
    print(f"dimension {basis.dimension}")
    if args.basis:
        for e in basis.elements():
            print(str(e))
    return 0


def _cmd_invariants(args, ctx: _Ctx) -> int:
    classes = invariant_basis(args.n, args.d)
    print(f"dimension {len(classes)}")
    for c in classes:
        print(str(c))
    return 0


def _cmd_coinvariants(args, ctx: _Ctx) -> int:
    report = coinvariant_classes(args.n, args.d)
    print(f"dimension {report.dimension} (relations rank {report.relations_rank})")
    for e in report.class_representatives:
        print(str(e))
    return 0


def _cmd_transfer(args, ctx: _Ctx) -> int:
    report = transfer_report(args.n, args.d)
    verdict = VerdictReport(
        claim=f"transfer:n={args.n},d={args.d}",
        n=args.n,
        d=args.d,
        expected=report.coinvariant_dimension,
        computed=report.coinvariant_dimension,
        passed=all(r.cycle for r in report.representatives),
        representatives=[
            {
                "d_element": str(r.d_element),
                "lambda_element": str(r.lambda_element),
                "cycle": r.cycle,
                "label": r.matched_label,
            }
            for r in report.representatives
        ],
    )
    print(emit_report([verdict], ctx.fmt), end="")
    return 0 if verdict.passed else 1


def _cmd_lambda_nf(args, ctx) -> int:
    print(str(normal_form(parse_lambda_element(args.element))))
    return 0


def _cmd_lambda_d(args, ctx) -> int:
    print(str(differential(parse_lambda_element(args.element))))
    return 0


def _cmd_ext(args, ctx: _Ctx) -> int:
    print(homology_dim(args.s, args.w))
    return 0


# -- verification drivers ----------------------------------------------------------


def _verify_thm21(args, ctx: _Ctx) -> list[VerdictReport]:
    t, s, u = args.t, args.s, args.u
    d = _generic4_degree(t, s, u)
    expected, family = thm21_expected(t, s, u)
    start = time.monotonic()
    report = coinvariant_classes(4, d)
    ok = report.dimension == expected
    reps: list[dict] = []
    if family is not None:
        z = _zeta_for(family, t, s, u)
        primitive = all(dual_sq(1 << i, z).is_zero() for i in range(d.bit_length()))
        nonzero = primitive and coinvariant_class_nonzero(4, d, z)
        ok = ok and primitive and nonzero
        reps.append(
            {
                "d_element": str(z),
                "lambda_element": None,
                "cycle": None,
                "label": f"zeta[{family}] primitive={primitive} class_nonzero={nonzero}",
            }
        )
    return [
        VerdictReport(
            claim=f"thm2.1:t={t},s={s},u={u}",
            n=4,
            d=d,
            expected=expected,
            computed=report.dimension,
            passed=ok,
            representatives=reps,
            timing_ms=(time.monotonic() - start) * 1000,
        )
    ]


def _verify_cor22(args, ctx: _Ctx) -> list[VerdictReport]:
    t, s, u = args.t, args.s, args.u
    d = _generic4_degree(t, s, u)
    expected, family = thm21_expected(t, s, u)
    start = time.monotonic()
    coinv = coinvariant_classes(4, d).dimension
    ext = homology_dim(4, d)
    ok = coinv == ext == expected
    reps: list[dict] = []
    if family is not None:
        z = _zeta_for(family, t, s, u)
        image = psi(4, z)
        cycle = differential(image).is_zero()
        label = None
        for name, word in label_dictionary(4, d):
            if class_equal(image, word):
                label = name
                break
        ok = ok and cycle and label is not None
        reps.append(
            {
                "d_element": str(z),
                "lambda_element": str(image),
                "cycle": cycle,
                "label": label,
            }
        )
    return [
        VerdictReport(
            claim=f"cor2.2:d={d}",
            n=4,
            d=d,
            expected=expected,
            computed=ext,
            passed=ok,
            representatives=reps,
            timing_ms=(time.monotonic() - start) * 1000,
        )
    ]


def _verify_thm23(args, ctx: _Ctx) -> list[VerdictReport]:
    t = args.t
    d = _rank5_degree(t)
    ctx.require_heavy(f"coinvariants of rank 5 in degree {d}")
    start = time.monotonic()
    report = coinvariant_classes(5, d)
    return [
        VerdictReport(
            claim=f"thm2.3:t={t}",
            n=5,
            d=d,
            expected=0,
            computed=report.dimension,
            passed=report.dimension == 0,
            timing_ms=(time.monotonic() - start) * 1000,
        )
    ]


def _verify_cor24(args, ctx: _Ctx) -> list[VerdictReport]:
    t = args.t
    d = _rank5_degree(t)
    start = time.monotonic()
    ext = homology_dim(5, d)
    ext_verdict = VerdictReport(
        claim=f"cor2.4:t={t}:ext",
        n=5,
        d=d,
        expected=0,
        computed=ext,
        passed=ext == 0,
        timing_ms=(time.monotonic() - start) * 1000,
    )
    return [ext_verdict] + _verify_thm23(args, ctx)


def _cmd_verify(args, ctx: _Ctx) -> int:
    drivers = {
        "thm21": _verify_thm21,
        "cor22": _verify_cor22,
        "thm23": _verify_thm23,
        "cor24": _verify_cor24,
    }
    reports = drivers[args.claim](args, ctx)
    print(emit_report(reports, ctx.fmt), end="")
    return 0 if all(r.passed for r in reports) else 1


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hitcalc",
        description="cohits, primitives, coinvariants and lambda homology over F2",
    )
    top.add_argument("--json", action="store_true", help="JSON report output")
    top.add_argument("--csv", action="store_true", help="CSV report output")
    top.add_argument("--budget-mb", type=int, default=None, metavar="M")
    top.add_argument("--allow-heavy", action="store_true")
    top.add_argument("--cache-dir", default=None, metavar="DIR")
    top.add_argument("--no-cache", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="ones in the binary expansion")
    p.add_argument("value", type=int)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("mu", help="least r with alpha(value + r) <= r")
    p.add_argument("value", type=int)
    p.set_defaults(func=_cmd_mu)

    for name, func, with_basis in [
        ("cohit", _cmd_cohit, True),
        ("primitives", _cmd_primitives, True),
        ("invariants", _cmd_invariants, False),
        ("coinvariants", _cmd_coinvariants, False),
        ("transfer", _cmd_transfer, False),
    ]:
        p = sub.add_parser(name)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-d", type=int, required=True)
        if with_basis:
            p.add_argument("--basis", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("lambda-nf", help="normal form of a lambda element")
    p.add_argument("element")
    p.set_defaults(func=_cmd_lambda_nf)

    p = sub.add_parser("lambda-d", help="differential of a lambda element")
    p.add_argument("element")
    p.set_defaults(func=_cmd_lambda_d)

    p = sub.add_parser("ext", help="lambda homology dimension at (s, w)")
    p.add_argument("-s", type=int, required=True)
    p.add_argument("-w", type=int, required=True)
    p.set_defaults(func=_cmd_ext)

    p = sub.add_parser("verify", help="verify a published claim")
    p.add_argument("claim", choices=["thm21", "cor22", "thm23", "cor24"])
    p.add_argument("-t", type=int, default=1)
    p.add_argument("-s", type=int, default=1)
    p.add_argument("-u", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        ctx = _Ctx(args)
        return args.func(args, ctx)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    finally:
        # library calls after a command stay off disk, under the default budget
        store.configure(None)
        budget.configure(None)


if __name__ == "__main__":
    sys.exit(main())
