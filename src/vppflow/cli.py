"""Command-line interface.

Verbs:
    run          execute the configured simulation, write per-step CSV
    sweep        expand the [sweep] section and write a summary CSV
    verify       run the acceptance suite, one pass/fail line per criterion
    print-config parse, validate and echo the configuration

Exit codes: 0 success (and --help), 1 validation or usage error, 2 solver
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vppflow",
        description="Penalty-projection incompressible flow solver with an "
                    "immersed moving obstacle.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "print-config"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="path to the INI run configuration")
        if verb != "print-config":
            p.add_argument("--out", default=".", help="output directory (default: .)")
            p.add_argument("--quiet", action="store_true", help="suppress progress output")
    v = sub.add_parser("verify", help="run the acceptance criteria")
    v.add_argument("--criteria", nargs="*", default=None,
                   help="subset of criteria to run, e.g. A1 A8 (default: all)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 after --help
        return EXIT_VALIDATION if exc.code else EXIT_OK

    if args.verb == "verify":
        from .acceptance import CRITERIA, run_all
        unknown = [name for name in args.criteria or () if name not in CRITERIA]
        if unknown:
            print(f"unknown criteria {' '.join(unknown)}; known: {' '.join(sorted(CRITERIA))}",
                  file=sys.stderr)
            return EXIT_VALIDATION
        results = run_all(args.criteria)
        failed = 0
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"[{status}] {res.name}: {res.summary} ({res.elapsed:.1f}s)")
            failed += 0 if res.passed else 1
        if failed:
            print(f"{failed} of {len(results)} criteria failed")
            return EXIT_VALIDATION
        print(f"all {len(results)} criteria passed")
        return EXIT_OK

    # imported after verify, which needs none of them: compiling configparser
    # and the run drivers costs resident memory and, without cached bytecode,
    # time
    from .config import ConfigError, load_config_file
    from .experiments import run_single, run_sweep
    from .scheme import SolverFailure

    try:
        cfg = load_config_file(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot read configuration: {exc}", file=sys.stderr)
        return EXIT_IO

    if args.verb == "print-config" or not args.quiet:
        print(cfg.echo())
    if args.verb == "print-config":
        return EXIT_OK

    try:
        if args.verb == "run":
            if cfg.sweep is not None:
                print("configuration has a [sweep] section; use the sweep verb",
                      file=sys.stderr)
                return EXIT_VALIDATION
            run_single(cfg, args.out, quiet=args.quiet)
        else:
            run_sweep(cfg, args.out, quiet=args.quiet)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:      # OutputError is one
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
