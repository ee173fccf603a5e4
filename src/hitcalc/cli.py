"""Command-line surface and verification drivers.

Exit codes: 0 success / all verdicts pass, 1 verification mismatch,
2 invalid input, 3 resource budget exceeded, 4 internal error.

Each command imports the engine functions it calls, so that it loads and
compiles only the modules it runs.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import budget, store
from .budget import BudgetError, HEAVY_BUDGET
from .reports import VerdictReport, emit_report
from .steenrod import alpha, generic_degree, mu


def _generic4_degree(t: int, s: int, u: int) -> int:
    return (1 << (t + s + u)) + (1 << (t + s)) + (1 << t) - 3


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


# -- query commands ---------------------------------------------------------------


def _cmd_alpha(args) -> int:
    print(alpha(args.value))
    return 0


def _cmd_mu(args) -> int:
    print(mu(args.value))
    return 0


def _cmd_cohit(args) -> int:
    from .hit import cohit_basis, reduce_degree_chain

    basis = cohit_basis(args.n, args.d)
    print(f"dimension {basis.dimension}")
    if args.basis:
        for m in basis.representatives:
            print(str(m))
    chain = reduce_degree_chain(args.n, args.d)
    if len(chain) > 1:
        print(f"reduction chain: {' -> '.join(str(x) for x in chain)}")
    return 0


def _cmd_primitives(args) -> int:
    from .homology import primitive_basis

    basis = primitive_basis(args.n, args.d)
    print(f"dimension {basis.dimension}")
    if args.basis:
        for e in basis.elements():
            print(str(e))
    return 0


def _cmd_invariants(args) -> int:
    from .glrep import invariant_basis

    classes = invariant_basis(args.n, args.d)
    print(f"dimension {len(classes)}")
    for c in classes:
        print(str(c))
    return 0


def _cmd_coinvariants(args) -> int:
    from .glrep import coinvariant_classes

    report = coinvariant_classes(args.n, args.d)
    print(f"dimension {report.dimension} (relations rank {report.relations_rank})")
    for e in report.class_representatives:
        print(str(e))
    return 0


def _image_entry(image) -> dict:
    """A transfer image as one representative of a verdict report."""
    return {
        "d_element": str(image.d_element),
        "lambda_element": str(image.lambda_element),
        "cycle": image.cycle,
        "label": image.matched_label,
    }


def _cmd_transfer(args) -> int:
    from .transfer import transfer_report

    report = transfer_report(args.n, args.d)
    verdict = VerdictReport(
        claim=f"transfer:n={args.n},d={args.d}",
        n=args.n,
        d=args.d,
        expected=report.coinvariant_dimension,
        computed=report.coinvariant_dimension,
        passed=all(r.cycle for r in report.representatives),
        representatives=[_image_entry(r) for r in report.representatives],
    )
    print(emit_report([verdict], args.fmt), end="")
    return 0 if verdict.passed else 1


def _cmd_lambda_nf(args) -> int:
    from .lambda_algebra import normal_form, parse_lambda_element

    print(str(normal_form(parse_lambda_element(args.element))))
    return 0


def _cmd_lambda_d(args) -> int:
    from .lambda_algebra import differential, parse_lambda_element

    print(str(differential(parse_lambda_element(args.element))))
    return 0


def _cmd_ext(args) -> int:
    from .lambda_algebra import homology_dim

    print(homology_dim(args.s, args.w))
    return 0


# -- verification drivers ----------------------------------------------------------


def _verify_thm21(args) -> list[VerdictReport]:
    from .glrep import coinvariant_class_nonzero, coinvariant_classes
    from .homology import dual_sq, zeta_element

    t, s, u = args.t, args.s, args.u
    d = _generic4_degree(t, s, u)
    expected, family = thm21_expected(t, s, u)
    start = time.monotonic()
    report = coinvariant_classes(4, d)
    ok = report.dimension == expected
    reps: list[dict] = []
    if family is not None:
        z = zeta_element(family, t, s, u)
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


def _verify_cor22(args) -> list[VerdictReport]:
    from .glrep import coinvariant_classes
    from .homology import zeta_element
    from .lambda_algebra import homology_dim
    from .transfer import transfer_image

    t, s, u = args.t, args.s, args.u
    d = _generic4_degree(t, s, u)
    expected, family = thm21_expected(t, s, u)
    start = time.monotonic()
    coinv = coinvariant_classes(4, d).dimension
    ext = homology_dim(4, d)
    ok = coinv == ext == expected
    reps: list[dict] = []
    if family is not None:
        image = transfer_image(4, d, zeta_element(family, t, s, u))
        ok = ok and image.cycle and image.matched_label is not None
        reps.append(_image_entry(image))
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


def _verify_thm23(args) -> list[VerdictReport]:
    from .glrep import coinvariant_classes

    t = args.t
    d = generic_degree(5, t, 50)
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


def _verify_cor24(args) -> list[VerdictReport]:
    from .lambda_algebra import homology_dim

    t = args.t
    d = generic_degree(5, t, 50)
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
    return [ext_verdict] + _verify_thm23(args)


def _cmd_verify(args) -> int:
    drivers = {
        "thm21": _verify_thm21,
        "cor22": _verify_cor22,
        "thm23": _verify_thm23,
        "cor24": _verify_cor24,
    }
    if args.claim in ("thm23", "cor24"):
        if args.t < 0:
            raise ValueError("the degree 5(2^t - 1) + 50*2^t needs t >= 0")
        if not args.allow_heavy:
            d = generic_degree(5, args.t, 50)
            raise BudgetError(
                f"coinvariants of rank 5 in degree {d} is a heavy computation; "
                "rerun with --allow-heavy"
            )
    reports = drivers[args.claim](args)
    print(emit_report(reports, args.fmt), end="")
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
        limit = HEAVY_BUDGET if args.allow_heavy else None
        if args.budget_mb is not None:
            limit = args.budget_mb << 20
        budget.configure(limit)
        store.configure(None if args.no_cache else store.cache_dir(args.cache_dir))
        args.fmt = "json" if args.json else "csv" if args.csv else "text"
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a broken invariant of the engine, not a verification mismatch
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    finally:
        # library calls after a command stay off disk, under the default budget
        store.configure(None)
        budget.configure(None)


if __name__ == "__main__":
    sys.exit(main())
