"""``python -m repro.testing.fuzz`` -- budgeted differential fuzzing.

Round-robins case generation across the selected oracles, re-deriving
each case's RNG from ``(root seed, oracle name, case index)`` so any
failure is replayable from its printed seed line alone.  Failures are
minimized by the shrinker and emitted as ready-to-paste pytest repro
snippets (and, with ``--emit-dir``, written to files for CI artifact
upload).

Examples::

    python -m repro.testing.fuzz --budget-cases 200 --seed 0
    python -m repro.testing.fuzz --budget-seconds 300 --oracles cutty
    python -m repro.testing.fuzz --budget-cases 40 --mutate lazy

``--mutate STRATEGY`` deliberately corrupts that Cutty strategy's
emitted window values -- the mutation smoke proving the harness catches
and shrinks real divergence (see docs/testing.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.testing.oracles import (
    DEFAULT_ORACLE_NAMES,
    CuttyStrategyOracle,
    Oracle,
    make_oracle,
)
from repro.testing.seeds import DEFAULT_ROOT_SEED, rng_for
from repro.testing.shrinker import format_repro, shrink


class FuzzFailure:
    def __init__(self, seed_line: str, detail: str, repro: str) -> None:
        self.seed_line = seed_line
        self.detail = detail
        self.repro = repro


class FuzzReport:
    def __init__(self) -> None:
        self.cases_run = 0
        self.per_oracle: dict = {}
        self.failures: List[FuzzFailure] = []
        self.elapsed = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def build_oracles(names: List[str],
                  mutate: Optional[str] = None) -> List[Oracle]:
    oracles = []
    for name in names:
        if mutate is not None and name == CuttyStrategyOracle.name:
            oracles.append(make_oracle(name, mutate=mutate))
        else:
            oracles.append(make_oracle(name))
    return oracles


def run_fuzz(root_seed: int, oracles: List[Oracle],
             budget_cases: Optional[int] = None,
             budget_seconds: Optional[float] = None,
             shrink_checks: int = 300,
             max_failures: int = 5,
             log=lambda line: None) -> FuzzReport:
    """Round-robin the oracles until a budget runs out (or enough
    failures accumulated to stop being informative)."""
    if budget_cases is None and budget_seconds is None:
        budget_cases = 100
    report = FuzzReport()
    started = time.monotonic()
    index = 0
    while True:
        if budget_cases is not None and report.cases_run >= budget_cases:
            break
        if (budget_seconds is not None
                and time.monotonic() - started >= budget_seconds):
            break
        if len(report.failures) >= max_failures:
            log("stopping early: %d failures" % len(report.failures))
            break
        oracle = oracles[index % len(oracles)]
        rng = rng_for(root_seed, oracle.name, index)
        case = oracle.generate(rng, root_seed, index)
        try:
            detail = oracle.check(case)
        except Exception as exc:  # noqa: BLE001 - report, don't abort the run
            detail = ("oracle raised %s: %s"
                      % (type(exc).__name__, exc))
        report.cases_run += 1
        report.per_oracle[oracle.name] = (
            report.per_oracle.get(oracle.name, 0) + 1)
        if detail is not None:
            log("FAIL %s -- shrinking (|stream|=%d)"
                % (case.seed_line, len(case.stream)))
            shrunk = shrink(oracle, case, detail, max_checks=shrink_checks)
            report.failures.append(FuzzFailure(
                case.seed_line, shrunk.detail,
                format_repro(shrunk.case, shrunk.detail)))
        index += 1
    report.elapsed = time.monotonic() - started
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential fuzzing of batch/stream/Cutty paths.")
    parser.add_argument("--seed", type=int, default=DEFAULT_ROOT_SEED,
                        help="root seed (default %(default)s)")
    parser.add_argument("--budget-cases", type=int, default=None,
                        help="stop after this many cases")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="stop after this much wall time")
    parser.add_argument("--oracles", default=",".join(DEFAULT_ORACLE_NAMES),
                        help="comma-separated oracle names "
                             "(default: %(default)s)")
    parser.add_argument("--mutate", default=None, metavar="STRATEGY",
                        help="deliberately corrupt this Cutty strategy's "
                             "output (mutation smoke; expect failures)")
    parser.add_argument("--shrink-checks", type=int, default=300,
                        help="oracle re-checks allowed per shrink "
                             "(default %(default)s)")
    parser.add_argument("--emit-dir", default=None,
                        help="write shrunk repro snippets into this "
                             "directory (for CI artifacts)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="run every oracle pipeline with this "
                             "record-batch size (sets REPRO_BATCH_SIZE; "
                             "default: the engine default, 1024)")
    args = parser.parse_args(argv)

    if args.batch_size is not None:
        if args.batch_size < 1:
            parser.error("--batch-size must be >= 1")
        # Oracles build their engines with the default EngineConfig,
        # which resolves batch_size from this variable -- the same
        # pipelines fuzz at any batch size with no signature churn.
        os.environ["REPRO_BATCH_SIZE"] = str(args.batch_size)

    names = [name.strip() for name in args.oracles.split(",") if name.strip()]
    oracles = build_oracles(names, mutate=args.mutate)

    def log(line: str) -> None:
        print(line, flush=True)

    log("fuzz: seed=%d oracles=%s budget_cases=%s budget_seconds=%s%s%s"
        % (args.seed, ",".join(names), args.budget_cases,
           args.budget_seconds,
           " batch_size=%d" % args.batch_size if args.batch_size else "",
           " MUTATE=%s" % args.mutate if args.mutate else ""))
    report = run_fuzz(args.seed, oracles,
                      budget_cases=args.budget_cases,
                      budget_seconds=args.budget_seconds,
                      shrink_checks=args.shrink_checks,
                      log=log)

    per_oracle = " ".join("%s=%d" % item
                          for item in sorted(report.per_oracle.items()))
    log("fuzz: %d cases in %.1fs (%s)"
        % (report.cases_run, report.elapsed, per_oracle))
    if report.ok:
        log("fuzz: OK")
        return 0

    for number, failure in enumerate(report.failures, start=1):
        log("")
        log("=== failure %d/%d: %s"
            % (number, len(report.failures), failure.seed_line))
        log(failure.detail)
        log("--- shrunk repro (paste into tests/) ---")
        log(failure.repro)
        if args.emit_dir:
            os.makedirs(args.emit_dir, exist_ok=True)
            path = os.path.join(args.emit_dir,
                                "repro_%02d.py" % number)
            with open(path, "w") as handle:
                handle.write("# %s\n%s" % (failure.seed_line, failure.repro))
            log("wrote %s" % path)
    log("fuzz: FAILED (%d failures)" % len(report.failures))
    return 1


if __name__ == "__main__":
    sys.exit(main())
