"""Command-line surface: construct graph families, build and verify
factorizations, run the solvers and the separator engine.

Exit codes: 0 success, 1 verification failure (a FAIL in `verify`, or
`InvalidFactorization` in any command), 2 usage or input error.
All outputs are deterministic (sorted keys, ascending vertex order) so a
manifest replay reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gc
import json
import os
import sys

from . import (
    Factorization,
    Graph,
    Measure,
    audit_lower_bound,
    bandwidth_exact,
    ccw_exact,
    ccw_upper_greedy,
    example3_i,
    example3_ii,
    factorize_apex_grid,
    factorize_clique_sum,
    apex_grid,
    grid,
    separate,
    verify_factorization,
)
from .errors import CcwKitError, InvalidFactorization


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore the state it had.

    Only for decoding inputs and encoding outputs: JSON trees hold no
    cycles, and the collector scans their small lists.  On a 2-vCPU Xeon
    VM that cost about 20 ms per apex-grid envelope at n = 40 written as
    edge lists (1.4 x 10^5 lists), and 1-2 ms written as cliques (1.1 x
    10^4 lists), in decoding and in encoding alike.  Without the pause,
    run_s was higher in 8 of 8 alternating pairs (`perfbench/run.py
    --seconds 12`, seeds 1-4, same VM): medians 0.1897 -> 0.1993 s on
    apex-pipeline and 0.1531 -> 0.1580 s on sum-separate.  No workload
    gains from dropping it, so it stays.  Library computation runs with
    the collector on, since the exact searches make cyclic garbage.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _write(text: str, out: str | None) -> None:
    """Write `text` to stdout for no --out or "-"; any other value, ""
    included, is a path, and every output file goes through here.

    An existing file is overwritten in place: opened without O_TRUNC,
    written, then cut to the new length if it was longer (the fstat check
    keeps /dev/null and pipes, which cannot be cut, writable), so it keeps
    its inode and mode, as with a shell's `>`.  Truncating a file to 0 bytes
    and writing it again makes ext4 (with its default `auto_da_alloc`) force
    the file's writeback at close(), its guard against a file left empty by
    a crash.  Writing in place gives that writeback up, and the
    writeback is the whole saving, so it shows only when the file already
    exists (a re-run or a `replay` into the same paths).  On a 2-vCPU Xeon
    VM with an ext4 root (medians of 300 writes, two runs), a rewrite took
    90-140 us truncated against 6-7 us in place for a 130-byte `ccw` result,
    and 180-290 against 10-13 us for a 121 KB envelope.  A new file is not
    written back either way: the 130-byte result took 25 us with
    `Path.write_text` against 16 us here, the cost of the text layer.  A
    temporary file renamed over the old one (96 and 244 us) is no better,
    since ext4 forces writeback on a rename over a file too.

    An exception raised while writing (an OSError such as ENOSPC, or
    KeyboardInterrupt) cuts the file to 0 bytes before it propagates.  Until
    the write ends, though, the file holds the new bytes followed by the old
    tail, so a concurrent reader, a kill by a signal Python cannot catch, or
    a crash can see or leave one run's bytes after another's.
    """
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    data = text.encode()
    # the path is opened as given, as a shell's `>` would: "x.json/" names a
    # directory and exits 2.  pathlib would drop the slash, and Path(out)
    # alone costs about 40 us.  `--out ""` opens ".", so it exits 2 too
    fd = os.open(out or ".", os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        # os.write, not a buffered file object: after a failed flush a
        # BufferedWriter keeps its bytes and writes them again at close(),
        # after the cut to 0 below
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        if os.fstat(fd).st_size > done:
            os.ftruncate(fd, done)
    except BaseException:
        with contextlib.suppress(OSError):  # a pipe or a device cannot be cut
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def _dump(obj: dict, out: str | None) -> None:
    # compact separators keep CPython on its C encoder; `indent` does not
    _write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", out)


def _read_json(path: str):
    # One binary read, decoded as UTF-8 whatever the locale: read and
    # decoded, a 239-byte graph file takes about 90 us against 140 us with
    # Path.read_text.  A missing file or a directory raises its OSError
    # here, naming the path.  json.loads gets text, not bytes, which it
    # would sniff for an encoding and so accept BOM and UTF-16 files.
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # past sys.get_int_max_str_digits(); RecursionError, nesting too deep
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        raise CcwKitError(f"{path} is not valid JSON: {exc}") from None


def _parse_pairs(text: str, sep: str, flag: str, example: str) -> list[tuple[int, int]]:
    pairs = []
    for tok in text.split(","):
        try:
            a, b = tok.split(sep)
            pairs.append((int(a), int(b)))
        except ValueError:
            raise CcwKitError(
                f"malformed {flag} token {tok!r}, expected e.g. {example!r}"
            ) from None
    return pairs


def _parse_apex_edges(text: str | None) -> set[tuple[int, int]]:
    return set(_parse_pairs(text, "-", "--apex-edges", "1-2,2-3")) if text else set()


def _parse_parts(text: str | None) -> list[tuple[int, int]]:
    # "1:4,1:6" -> [(k=1, n=4), (k=1, n=6)]
    if not text:
        raise CcwKitError("clique-sum needs --parts, e.g. '1:4,1:6'")
    return _parse_pairs(text, ":", "--parts", "1:4,1:6")


def _write_manifest(path: str | None, argv: list[str], seed: int) -> None:
    if path:
        _dump({"command": "ccwkit", "argv": argv, "seed": seed}, path)


def _clique_sum(args: argparse.Namespace) -> tuple[Factorization, int, int]:
    parts = _parse_parts(args.parts)
    f = factorize_clique_sum(parts, _parse_apex_edges(args.removed_edges))
    # meta n is the parts' total side, meta k their shared apex count
    return f, sum(n for _, n in parts), parts[0][0]


# family -> (make graph, make (factorization, meta n, meta k)).  Without the
# first, `construct` writes the factorization's base; without the second,
# `factorize` does not offer the family.
_FAMILIES = {
    "grid": (lambda a: grid(a.n), None),
    "apex-grid": (
        lambda a: apex_grid(a.k, a.n, _parse_apex_edges(a.apex_edges)),
        lambda a: (factorize_apex_grid(a.k, a.n, _parse_apex_edges(a.apex_edges)), a.n, a.k),
    ),
    "clique-sum": (None, _clique_sum),
    "example3i": (None, lambda a: (example3_i(a.n, a.k), a.n, a.k)),
    "example3ii": (None, lambda a: (example3_ii(a.n, a.k), a.n, a.k)),
}


def _build_graph(args: argparse.Namespace) -> Graph:
    graph, factorization = _FAMILIES[args.family]
    return graph(args) if graph else factorization(args)[0].base


def _build_factorization(args: argparse.Namespace) -> tuple[Factorization, dict]:
    f, n, k = _FAMILIES[args.family][1](args)
    return f, {"family": args.family, "n": n, "k": k}


def cmd_construct(args: argparse.Namespace) -> int:
    g = _build_graph(args)
    if args.dot:
        _write(g.to_dot(), args.out)
    else:
        with _gc_paused():
            _dump(g.to_json(), args.out)
    return 0


def cmd_factorize(args: argparse.Namespace) -> int:
    f, meta = _build_factorization(args)
    with _gc_paused():
        envelope = f.to_json()
        envelope["meta"] = meta
        _dump(envelope, args.out)
        del envelope  # freed before the collector resumes, so it never scans it
    return 0


def _load_factorization(path: str) -> tuple[Factorization, dict]:
    with _gc_paused():
        obj = _read_json(path)
        f, meta = Factorization.from_json(obj), obj.get("meta", {})
        del obj  # freed before the collector resumes, so it never scans it
    if not isinstance(meta, dict):
        raise CcwKitError("'meta' must be an object")
    return f, meta


def cmd_verify(args: argparse.Namespace) -> int:
    f, _ = _load_factorization(args.file)
    checks = verify_factorization(f)
    failed = None
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok and failed is None:
            failed = name
    if failed is not None:
        print(f"verification failed: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_ccw(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise CcwKitError("--budget must be >= 0")
    with _gc_paused():
        g = Graph.from_json(_read_json(args.file))
    if args.greedy:
        width, cover = ccw_upper_greedy(g)
        report = {"mode": "greedy", "width": width, "cover": cover.to_json()}
    else:
        res, cover = ccw_exact(g, budget=args.budget)
        report = {
            "mode": "exact",
            "width": res.value,
            "exact": res.exact,
            "cover": cover.to_json(),
        }
    if args.bandwidth:
        res, order = bandwidth_exact(g, budget=args.budget)
        report["bandwidth"] = res.value
        report["bandwidth_exact"] = res.exact
        report["ordering"] = order
    _dump(report, args.out)
    return 0


def cmd_separate(args: argparse.Namespace) -> int:
    f, meta = _load_factorization(args.file)
    mu = Measure.from_list(_read_json(args.weights)) if args.weights else None
    result = separate(f, mu)
    # the CSV is opened before --out is written, so one that cannot be
    # opened leaves no --out file behind
    with open(args.csv, "a", newline="") if args.csv else contextlib.nullcontext() as fh:
        _dump(result.to_json(), args.out)
        if fh is None:
            return 0
        row = {
            "family": meta.get("family", "?"),
            "n": meta.get("n", ""),
            "k": meta.get("k", ""),
            "N": f.base.n,
            "lstar": result.lstar,
            "sep_size": len(result.separator),
            "sep_cliques": len(result.separator_cliques),
            "bound": f"{result.bound_value:.3f}",
            "mu_a": result.mu_a,
            "mu_b": result.mu_b,
        }
        writer = csv.DictWriter(fh, fieldnames=list(row))
        # an empty file, new or not, gets the header; a pipe such as
        # /dev/stdout cannot tell() and gets rows only
        if fh.seekable() and fh.tell() == 0:
            writer.writeheader()
        writer.writerow(row)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    f, _ = _load_factorization(args.file)
    report = audit_lower_bound(f, x=args.apex)
    _dump(report.to_json(), args.out)
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    manifest = _read_json(args.file)
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise CcwKitError(f"{args.file} has no argv list of strings")
    # a replay of a replay could run in a cycle, so only one level is allowed
    if build_parser().parse_args(argv).cmd == "replay":
        raise CcwKitError(f"{args.file} replays another manifest; replay that one")
    return main(argv)


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--apex-edges", help="apex pairs, e.g. '1-2,2-3'")
    p.add_argument("--parts", help="clique-sum parts as k:n pairs, e.g. '1:4,1:6'")
    p.add_argument("--removed-edges", help="apex pairs removed from the sum junction")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (seven subparsers cost
    about 20 times a parse) and shared by `main` and `replay`: parse with
    it, do not add to it."""
    parser = argparse.ArgumentParser(prog="ccwkit")
    parser.add_argument("--manifest", help="write a replayable run manifest here")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("construct", help="write a graph family as JSON (or DOT)")
    p.add_argument("family", choices=list(_FAMILIES))
    _add_family_args(p)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("factorize", help="write a verified factorization envelope")
    p.add_argument("family", choices=[name for name, (_, fz) in _FAMILIES.items() if fz])
    _add_family_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("verify", help="re-check a factorization envelope")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ccw", help="clique cover width of a graph file")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--greedy", action="store_true")
    p.add_argument("--bandwidth", action="store_true", help="also report exact bandwidth")
    p.add_argument("--budget", type=int, default=500_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ccw)

    p = sub.add_parser("separate", help="balanced separator with clique certificate")
    p.add_argument("file")
    p.add_argument("--weights", help="JSON list of vertex weights (default uniform)")
    p.add_argument("--csv", help="append a summary row to this CSV file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("audit", help="lower-bound audit of an apex-grid factorization")
    p.add_argument("file")
    p.add_argument("--apex", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("file")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # no path can hold a NUL, and open() would raise ValueError on one
        for arg in argv:
            if "\0" in arg:
                raise CcwKitError(f"argument {arg!r} contains a NUL byte")
        _write_manifest(args.manifest, argv, args.seed)
        return args.func(args)
    except (CcwKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InvalidFactorization) else 2


if __name__ == "__main__":
    raise SystemExit(main())
