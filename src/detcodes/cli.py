"""Command-line tool: encode files to shards, recover, repair, run exact
security audits, and emit trade-off tables.

Subcommands: encode | recover | repair | audit | tradeoff | pareto.
Exit status is 0 on success (and on audit PASS), nonzero otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .code import system, vandermonde_encoder
from .secure import Scheme, SecureParams, _check_ell, build_layout
from .leakage import AUDIT_CSV_HEADER, audit_passes, audit_set_cap, audit_sweep
from .shards import ShardFile, StripedCodec
from .tradeoff import (
    MAX_TRADEOFF_D,
    emit_tradeoff_csv,
    pareto_count,
    pareto_points_bruteforce,
)


def _parse_range(text: str) -> list[int]:
    """Accept '3', '0..3' (inclusive) or '1,2,5'.  A range is refused
    before it is built if it is longer than the d and ell values the
    trade-off accepts, 0 <= ell <= d <= MAX_TRADEOFF_D."""
    if ".." in text:
        lo, hi = map(int, text.split("..", 1))
        if hi - lo >= MAX_TRADEOFF_D + 1:
            raise ValueError(f"range {text} holds more than {MAX_TRADEOFF_D + 1} values")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def _parse_schemes(text: str) -> list[Scheme]:
    return [Scheme(part) for part in text.split(",")]


def _secure_params(args: argparse.Namespace) -> SecureParams:
    base = system(args.n, args.d, args.m, args.q)
    return SecureParams(base, args.ell, Scheme(args.scheme))


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of storage nodes")
    p.add_argument("--d", type=int, required=True, help="repair degree (= k)")
    p.add_argument("--m", type=int, required=True, help="code mode in [1, d]")
    p.add_argument(
        "--scheme",
        choices=[s.value for s in Scheme],
        default=Scheme.PLAIN.value,
        help="layout: plain, type1 or type2",
    )
    p.add_argument("--ell", type=int, default=0, help="compromised-node budget")
    p.add_argument("--q", type=int, default=None, help="prime field modulus (> n)")


def _reuse_freed_memory() -> None:
    """Keep freed blocks in glibc's heap for reuse.

    The streaming codec allocates and frees the same few hundred KiB of
    temporaries for every block of stripes.  By default glibc maps buffers
    of 128 KiB and more fresh from the kernel and unmaps them when freed,
    and trims the heap top beyond 128 KiB, so every block faults its pages
    in again: about 80,000 page faults and a third of the time of a 1 MiB
    Type-II encode.  These are the thresholds glibc itself moves to once a
    32 MiB buffer has been freed.  Other C libraries keep their defaults.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def cmd_encode(args: argparse.Namespace) -> int:
    _reuse_freed_memory()
    sparams = _secure_params(args)
    codec = StripedCodec(sparams)
    seed_present = args.seed is not None
    seed = args.seed if seed_present else int.from_bytes(os.urandom(32), "little")
    headers = codec.encode_to(args.input, args.out, seed, seed_present)
    head = headers[0]
    stripes = head.payload_symbols // sparams.base.alpha
    stored = len(headers) * (head.size + head.payload_bytes)
    expansion = f"{stored / head.original_length:.2f}x" if head.original_length else "-"
    print(
        f"encoded {head.original_length} bytes into {len(headers)} shards "
        f"({stripes} stripes of {codec.symbols_per_stripe} data symbols, "
        f"q={sparams.base.q}, scheme={sparams.scheme.value}, ell={sparams.ell}); "
        f"stored {stored} bytes, storage expansion {expansion}"
    )
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    _reuse_freed_memory()
    with contextlib.ExitStack() as stack:
        shards = [stack.enter_context(ShardFile(p)) for p in args.shards]
        codec = StripedCodec(shards[0].header.secure_params())
        length = codec.recover_to(shards, args.out)
    print(f"recovered {length} bytes from {len(shards)} shards")
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    _reuse_freed_memory()
    with contextlib.ExitStack() as stack:
        helpers = [stack.enter_context(ShardFile(p)) for p in args.shards]
        codec = StripedCodec(helpers[0].header.secure_params())
        bandwidth = codec.repair_to(args.failed, helpers, args.out)
    read = sum(h.header.payload_bytes for h in helpers)
    print(
        f"repaired node {args.failed} from {len(helpers)} helpers; "
        f"paper's repair bandwidth {bandwidth} symbols "
        f"(stripes x d x beta, beta={codec.params.beta}); "
        f"read {read} helper payload bytes (whole shards)"
    )
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    sparams = _secure_params(args)
    base = sparams.base
    d, m, ell = base.d, base.m, sparams.ell
    audit_set_cap(sparams, args.max_set_size)  # before anything is built
    layout = build_layout(sparams)
    psi = vandermonde_encoder(base)
    rows = audit_sweep(layout, psi, max_set_size=args.max_set_size)
    print(
        f"system (n={base.n}, k=d={d}, m={m}) q={base.q}: "
        f"F={base.file_size} alpha={base.alpha} beta={base.beta}"
    )
    print(f"scheme={sparams.scheme.value} ell={ell}: "
          f"Fs={layout.secret_count} keys={layout.key_count}")
    print(AUDIT_CSV_HEADER)
    for row in rows:
        print(row.as_csv())
    largest = max(len(row.nodes) for row in rows)
    ok = audit_passes(rows, ell)
    print(f"audited {len(rows)} eavesdropper sets (|L| <= {largest}): "
          + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_tradeoff(args: argparse.Namespace) -> int:
    lines = list(emit_tradeoff_csv(
        _parse_range(args.d), _parse_range(args.ell), _parse_schemes(args.scheme)
    ))
    if len(lines) == 1:
        raise ValueError("no (scheme, d, ell) in the request is valid; the table is empty")
    print("\n".join(lines))
    return 0


def cmd_pareto(args: argparse.Namespace) -> int:
    scheme = Scheme(args.scheme)
    if args.d < 1:
        raise ValueError(f"d must be positive, got d={args.d}")
    _check_ell(scheme, args.d, args.ell)
    modes = sorted(pareto_points_bruteforce(args.d, args.ell, scheme))
    print(f"pareto modes for d={args.d}, ell={args.ell}, {scheme.value}: "
          + (",".join(map(str, modes)) or "-"))
    if scheme is Scheme.TYPE_II:
        t = pareto_count(args.d, args.ell)
        agree = t == len(modes)
        print(f"closed-form count: {t} ({'agrees with' if agree else 'DISAGREES with'} hull oracle)")
        return 0 if agree else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detcodes",
        description="Exact-repair determinant codes with Type-I/Type-II "
        "secure layouts and an exact rank-based security auditor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a file into n shard files")
    p.add_argument("input", help="input file")
    _add_system_flags(p)
    p.add_argument(
        "--seed", type=int, default=None,
        help="key-stream seed in [0, 2^256) for byte-identical shards "
        "(default: 32 bytes of OS entropy). Keys are SHAKE-256 output, so "
        "secrecy is computational at the seed's 256 bits: anyone who knows "
        "a fixed seed can regenerate every key, and can confirm a guessed "
        "input from the object id in one shard header",
    )
    p.add_argument("--out", required=True, help="output directory for shards")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("recover", help="rebuild the original file from any d shards")
    p.add_argument("shards", nargs="+", help="shard files (at least d)")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("repair", help="regenerate a lost shard from d helpers")
    p.add_argument("shards", nargs="+", help="d helper shard files")
    p.add_argument("--failed", type=int, required=True, help="failed node id")
    p.add_argument("--out", required=True, help="output shard file")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("audit", help="exact leakage audit over eavesdropper sets")
    _add_system_flags(p)
    p.add_argument(
        "--max-set-size", type=int, default=None,
        help="audit sets up to this size (default: ell)",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("tradeoff", help="emit the trade-off table as CSV")
    p.add_argument("--d", required=True, help="d values, e.g. 15 or 10..20 or 6,15")
    p.add_argument("--ell", required=True, help="ell values, e.g. 2 or 0..3")
    p.add_argument(
        "--scheme", default="plain,type1,type2",
        help="comma-separated schemes (plain,type1,type2)",
    )
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("pareto", help="Pareto points of the trade-off")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument(
        "--scheme", choices=[s.value for s in Scheme], default=Scheme.TYPE_II.value
    )
    p.set_defaults(func=cmd_pareto)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # stdout closed early (`| head`): not a fault of the input
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 141  # 128 + SIGPIPE, as a shell reports a tool killed by it
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
