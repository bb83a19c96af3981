"""Command-line interface.

Subcommands:
  index           exact index of one sequence, as JSON
  witness         certificate with derivation tag, optionally with the pipeline trace
  enumerate       all minimal zero-sum length-4 sequences (or orbit reps) for one modulus
  verify          range verification, one JSON report line per modulus
  counterexample  first sequence with index >= 2 for one modulus, or "none"

Exit codes:
  0  success; for verify and witness, no counterexample
  1  verify or witness found a counterexample (a sequence with index >= 2)
  2  usage error, or input rejected by a boundary check
  3  internal failure, any other exception (traceback on stderr): e.g. a
     failed certificate check in verify or witness, a pipeline/oracle
     disagreement on verify's own sequences, or a dead --jobs pool worker
  141  stdout was closed early (128 + SIGPIPE): unchecked, so not one of 0 to 3

verify writes each report line as soon as its modulus is done (flushed,
also with --out) and a progress note per modulus to stderr, with an ETA
that assumes each remaining modulus costs in proportion to n^3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback

from . import __version__
from .certify import Certificate, find_certificate
from .enumeration import iter_min_zero_sum4, iter_orbit_reps
from .harness import (
    FILTERS,
    MODES,
    SAMPLE_INTERVAL,
    SEED,
    find_counterexample,
    report_to_json,
    result_json,
    select_moduli,
    verify_range,
)
from .zseq import index, make_sequence

__all__ = ["build_parser", "entrypoint", "main"]


def _parse_seq(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsindex",
        description="Index computation and certificate search for zero-sum sequences over Z_n.",
    )
    parser.add_argument("--version", action="version", version=f"zsindex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="exact index of one sequence")
    p_index.add_argument("--n", type=int, required=True)
    p_index.add_argument("--seq", type=_parse_seq, required=True, metavar="a,b,c,d")
    p_index.set_defaults(run=_cmd_index)

    p_witness = sub.add_parser("witness", help="certificate for one sequence")
    p_witness.add_argument("--n", type=int, required=True)
    p_witness.add_argument("--seq", type=_parse_seq, required=True, metavar="a,b,c,d")
    p_witness.add_argument("--explain", action="store_true", help="include the pipeline trace")
    p_witness.set_defaults(run=_cmd_witness)

    p_enum = sub.add_parser("enumerate", help="list minimal zero-sum length-4 sequences")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--orbits", action="store_true", help="one orbit representative per line")
    p_enum.set_defaults(run=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="verify a range of moduli")
    p_verify.add_argument("--from", dest="from_n", type=int, required=True, metavar="A")
    p_verify.add_argument("--to", dest="to_n", type=int, required=True, metavar="B")
    p_verify.add_argument(
        "--filter", choices=[name.replace("_", "-") for name in FILTERS], default="coprime6"
    )
    p_verify.add_argument("--mode", choices=MODES, default="full")
    p_verify.add_argument("--jobs", type=int, default=1, metavar="J")
    p_verify.add_argument("--out", type=str, default=None, metavar="FILE")
    p_verify.set_defaults(run=_cmd_verify)

    p_cex = sub.add_parser("counterexample", help="first index >= 2 sequence for one modulus")
    p_cex.add_argument("--n", type=int, required=True)
    p_cex.set_defaults(run=_cmd_counterexample)

    return parser


def _cmd_index(args: argparse.Namespace) -> int:
    seq = make_sequence(args.n, args.seq)
    print(json.dumps({"n": seq.n, **result_json(seq, index(seq))}))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    seq = make_sequence(args.n, args.seq)
    trace: list[str] | None = [] if args.explain else None
    outcome = find_certificate(seq, trace=trace)
    payload: dict = {"n": args.n, "seq": list(seq.coeffs)}
    if isinstance(outcome, Certificate):
        payload["certificate"] = {"m": outcome.m, "k": outcome.k, "derivation": outcome.derivation}
        code = 0
    else:
        payload["certificate"] = None
        payload["counterexample"] = {
            "value": int(outcome.result.value),
            "witness": outcome.result.witness,
        }
        code = 1
    if trace is not None:
        payload["trace"] = trace
    print(json.dumps(payload))
    return code


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.orbits:
        for orbit in iter_orbit_reps(args.n):
            print(",".join(map(str, orbit.rep.coeffs)), orbit.orbit_size)
    else:
        for coeffs in iter_min_zero_sum4(args.n):
            print(",".join(map(str, coeffs)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    filter_name = args.filter.replace("-", "_")
    # Checks the input before the manifest is printed or --out is opened.
    reports = verify_range(args.from_n, args.to_n, filter_name, args.mode, jobs=args.jobs)
    manifest = {
        "manifest": {
            "version": __version__,
            "from": args.from_n,
            "to": args.to_n,
            "filter": filter_name,
            "mode": args.mode,
            "sample_interval": SAMPLE_INTERVAL,
            "seed": SEED,
        }
    }
    # Enumeration costs O(n^3) per modulus, so cubes weigh the work left.
    work_left = sum(n**3 for n in select_moduli(args.from_n, args.to_n, filter_name))
    work_done = 0
    t0 = time.perf_counter()
    moduli = 0
    sequences = 0
    counterexamples = 0
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
        print(json.dumps(manifest), file=out)
        for report in reports:
            print(report_to_json(report), file=out, flush=True)
            moduli += 1
            sequences += report.sequences_checked
            counterexamples += len(report.counterexamples)
            work_done += report.n**3
            work_left -= report.n**3
            elapsed = time.perf_counter() - t0
            print(
                f"n={report.n}: {report.sequences_checked} sequences,"
                f" {elapsed:.1f}s elapsed, ETA {elapsed * work_left / work_done:.1f}s",
                file=sys.stderr,
            )
    print(
        f"verified {moduli} moduli, {sequences} sequences, "
        f"{counterexamples} counterexamples in {time.perf_counter() - t0:.2f}s",
        file=sys.stderr,
    )
    return 1 if counterexamples else 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    hit = find_counterexample(args.n)
    if hit is None:
        print("none")
        return 0
    print(json.dumps({"n": args.n, **result_json(hit.sequence, hit.result)}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        with contextlib.suppress(AttributeError, ValueError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())  # in-process stdouts have no fileno()
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
