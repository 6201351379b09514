"""Command-line surface.

Subcommands: prefix-prob, yn-law, verify, ratio-scan, recover, extend-check,
oracle, tail-check.  All reports are JSON (exact values as "num/den"
strings); ratio scans are CSV with a trailing summary JSON line.

ratio-scan checks its arguments once into ``harness._scan_plan`` and
streams that plan's blocks as ``_blocktext.texts`` scans and formats them:
each SCAN_BLOCK_ROWS-row block (8,192 rows, about 0.6 MB of CSV) is written
in order, so no process holds the whole scan or more than a few MB of it,
and a failed ratio guard (exit 3) follows the blocks before it.
Scans of at least SCAN_POOL_MIN_ROWS rows (a count that does not depend
on the block size) run on forked worker processes on Linux, whatever start
method a caller set: one per usable CPU, at most SCAN_MAX_WORKERS and never
more than there are blocks.  Each worker scans and formats its own share of
the blocks and sends their texts as raw bytes on a one-way pipe; the parent
only receives them in block order and writes them, as bytes to an --out
file and as text to stdout.  Smaller scans, one usable CPU and other
platforms run in-process.  The bytes do not depend on the CPU count.
``_blocktext`` makes the texts; only ratio-scan imports it.

Each subcommand declares the options it reads and those it requires
(COMMANDS), and every command line is checked against that table, so an
option it would ignore is refused.  A plainly spelled line, the subcommand
and then ``flag value`` pairs that the table allows (``_plain_parse``), is
read straight from the table; argparse reads every other spelling and
reports every fault, so its usage text is what a user sees.
Documents hold exact values as Fractions, which one JSON encoder's hook
writes as "num/den" text.

Exit codes: 0 success, 2 input/domain errors, 3 invariant violations
(invalid input objects and failed internal guards), 4 extendability
rejection, each with one JSON line on stderr.  A command line that does not
parse exits 2 through argparse, with argparse's usage text instead of the
JSON line: that text lists the options the subcommand takes.  A reader that
closes stdout early cuts the output short without changing the exit code.
Any other exception is a bug and propagates as a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import random
import sys
from fractions import Fraction

from . import harness, io, model, oracle, recovery
from .model import ExtendabilityError, PrefixEvent, ValidationError
from .numerics import DomainError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_EXTENDABILITY = 4
# the errors main reports as one JSON line on stderr: (kind, exit code)
ERRORS = {
    ExtendabilityError: ("extendability", EXIT_EXTENDABILITY),
    io.InputFormatError: ("input", EXIT_INPUT),
    ValidationError: ("invariant", EXIT_INVARIANT),
    AssertionError: ("invariant", EXIT_INVARIANT),
    DomainError: ("domain", EXIT_INPUT),
}

SCAN_BLOCK_ROWS = harness.SCAN_BLOCK_ROWS   # ratio-scan CSV rows formatted per write
# Smaller scans format in-process, whatever the block size: below this row
# count starting workers costs more than it saves.  A forked worker has the
# parent's imports, and cold runs on 2 CPUs put the break-even near 150,000.
SCAN_POOL_MIN_ROWS = 200_000
# Each worker adds about 7 MB to the process tree, and its block workspace
# about 4 MB more; 4 bound that while keeping the parent, which only
# receives and writes (about 1 ms of its own per block that takes a worker
# 7-9 ms), far from saturated.
SCAN_MAX_WORKERS = 4
# A worker sends each text in pieces this long, which the parent receives
# into one buffer: Connection reads a message with reads as long as the
# rest of it, and each read of most of a 0.6 MB text allocated fresh pages
# (20,000 minor faults a pooled N = 1e6 scan in the parent, 1,400 in pieces)
_PIECE_BYTES = 1 << 16


class _ReaderGone(Exception):
    """The reader of stdout closed its end of the pipe."""


class _Stdout:
    """sys.stdout, flushed after every write, so that a closed pipe shows up
    here as ``_ReaderGone``: not at interpreter exit, and not as a
    ``BrokenPipeError`` that a block worker's pipe could also raise.  Bytes
    (ratio-scan's ASCII CSV) are written as text, so a caller that swaps
    sys.stdout for a text stream captures them."""

    def write(self, data) -> None:
        if not isinstance(data, str):
            data = str(data, "ascii")
        try:
            sys.stdout.write(data)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            raise _ReaderGone from exc


@contextlib.contextmanager
def _output(out_path: str | None, binary: bool = False):
    """The --out file opened for writing, binary for bytes, or stdout.

    A path that cannot be opened is an input error.  A reader that closes
    stdout early ends the command quietly: the rest of its output is
    dropped and the command goes on to its exit code.
    """
    if not out_path:
        try:
            yield _Stdout()
        except _ReaderGone:
            # what is left in stdout's buffer goes to devnull at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        fh = open(out_path, "wb" if binary else "w")
    except OSError as exc:
        raise io.InputFormatError(f"cannot write {out_path}: {exc}") from exc
    with fh:
        yield fh


def _exact_text(v):
    """The JSON encoder's hook: an exact value as its "num/den" text."""
    if isinstance(v, Fraction):
        return io.format_value(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


# writes every report, summary and error line: ``json.dumps(doc,
# default=...)`` would build an encoder on each call, for the same bytes
_JSON = json.JSONEncoder(default=_exact_text)


def _emit_json(doc, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(_JSON.encode(doc) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_prefix_prob(args: argparse.Namespace) -> int:
    if args.measure is not None:
        mu = io.load_measure(args.measure)
        value = model.mixture_prefix_prob(mu, args.pattern)
    elif args.moments is not None:
        c = io.load_moments(args.moments)
        value = model.prefix_prob_from_moments(c, args.pattern)
    else:
        law = io.load_law(args.law)
        value = model.prefix_prob_from_mean_law(law, args.pattern)
    _emit_json({"value": value}, args.out)
    return EXIT_OK


def cmd_yn_law(args: argparse.Namespace) -> int:
    mu = io.load_measure(args.measure)
    law = model.sample_mean_law(mu, args.N)
    _emit_json({"N": law.N, "q": law.weights}, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.law is not None:
        source = io.load_law(args.law)
    elif args.N is None:
        raise io.InputFormatError("-N is required with --measure")
    else:
        source = io.load_measure(args.measure)
    rep = harness.verify_approximation(source, args.pattern, N=args.N, backend=args.backend)
    # the dataclass fields are in the JSON key order
    _emit_json(vars(rep), args.out)
    return EXIT_OK


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _scan_workers(rows: int) -> int:
    """Block workers for a ``rows``-row scan: 1 (in-process) below
    SCAN_POOL_MIN_ROWS or off Linux, else one per usable CPU, at most
    SCAN_MAX_WORKERS and never more than there are blocks."""
    if rows < SCAN_POOL_MIN_ROWS or sys.platform != "linux":
        return 1
    return min(_usable_cpus(), SCAN_MAX_WORKERS, -(-rows // SCAN_BLOCK_ROWS))


def _format_worker(conn, readers, plan, share, shares) -> None:
    """Worker process: send the items of ``_blocktext.texts(plan, share,
    shares)`` on ``conn``, each as (eps_mid, text length) and then the text
    as raw bytes in pieces, then None; a block that raises sends the
    exception instead.  Returns quietly when the parent goes away or the
    user interrupts.

    A worker holds forked copies of the parent's reading ends of the pipes
    made so far, its own among them; it closes them, or a killed parent
    would leave it blocked on a pipe that never breaks.
    """
    from . import _blocktext

    for reader in readers:
        reader.close()
    try:
        try:
            for text, eps in _blocktext.texts(plan, share, shares):
                conn.send((eps, len(text)))
                for start in range(0, len(text), _PIECE_BYTES):
                    conn.send_bytes(text[start:start + _PIECE_BYTES])
            item = None
        except Exception as exc:   # a closed pipe breaks again on this send
            item = exc
        conn.send(item)
    except (BrokenPipeError, KeyboardInterrupt):
        pass


@contextlib.contextmanager
def _block_formatter(plan, workers: int):
    """``_blocktext.texts(plan)`` in block order: worker w of ``workers``
    runs the share w in a forked process and sends each item on a one-way
    pipe, waiting until the parent takes it; in-process below 2 workers.
    The parent reads the pipes in turn, on its own thread, each text into
    one buffer, and yields a view of it that holds until the next: a helper
    thread would receive the texts into a malloc arena of its own, which
    holds on to its peak.  The CLI starts no other Python thread, so a fork
    copies no lock that one holds; numpy's BLAS may keep an idle thread,
    which the workers never call into.  The workers are gone when the block
    exits, also when the consumer raises.
    """
    from . import _blocktext, _kernels   # before any worker forks

    if workers < 2:
        yield _blocktext.texts(plan)
        return
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    if plan[6] == "log":
        # the workers inherit the parent's caches: build the digit kernel's
        # tables once here, not in each worker
        _kernels._phi_table()
        _blocktext._digit_tables()
    readers, procs = [], []

    def receive():
        # one buffer for every text, as long as a log block's can be; an
        # exact block's "num/den" fields can be longer, and grow it
        received = memoryview(bytearray(plan[4] * _blocktext.ROW_MAX))
        for reader in itertools.cycle(readers):
            item = reader.recv()
            if item is None:   # the end of the share that holds the next block
                return
            if isinstance(item, Exception):   # relayed from the worker
                raise item
            eps, size = item
            if size > len(received):
                received = memoryview(bytearray(size))
            end = 0
            while end < size:
                end += reader.recv_bytes_into(received, end)
            yield received[:size], eps

    try:
        for share in range(workers):
            reader, writer = fork.Pipe(duplex=False)
            readers.append(reader)
            proc = fork.Process(
                target=_format_worker, args=(writer, readers, plan, share, workers), daemon=True
            )
            proc.start()
            writer.close()
            procs.append(proc)
        yield receive()
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for reader in readers:
            reader.close()


def cmd_ratio_scan(args: argparse.Namespace) -> int:
    pattern = args.pattern
    plan = harness._scan_plan(args.N, pattern.k, pattern.alpha, args.stride, args.backend,
                              SCAN_BLOCK_ROWS)
    N, _, _, stride, _, bounds, backend, r = plan
    workers = _scan_workers(harness.scan_length(N, stride))
    with _block_formatter(plan, workers) as texts:
        first = next(texts)   # a first block that fails leaves no output
        with _output(args.out, binary=True) as fh:
            fh.write(b"i,log_a,log_b,ratio,region\n" if backend == "log" else b"i,a,b,ratio,region\n")
            eps_mid = []
            for text, eps in itertools.chain([first], texts):
                fh.write(text)
                eps_mid.append(eps)
            summary = {"eps_mid": max(eps_mid), "r": r, "M1": bounds.M1, "M2": bounds.M2,
                       "stride": stride, "sampled": stride > 1, "backend": backend}
            fh.write((_JSON.encode(summary) + "\n").encode())
    return EXIT_OK


def cmd_recover(args: argparse.Namespace) -> int:
    c = io.load_moments(args.moments)
    rec = recovery.recover_from_moments(c, args.level)
    _emit_json(io.measure_to_doc(rec.measure, level=rec.level), args.out)
    return EXIT_OK


def cmd_extend_check(args: argparse.Namespace) -> int:
    c = io.load_moments(args.moments)
    check = model.check_complete_monotonicity(c)
    if check.ok:
        _emit_json({"result": "accept", "order": c.order}, args.out)
        return EXIT_OK
    _emit_json(
        {
            "result": "reject",
            "certificate": check.value,
            "difference_order": check.order,
            "index": check.index,
        },
        args.out,
    )
    return EXIT_EXTENDABILITY


def _random_rational_measure(rng: random.Random) -> model.MixingMeasure:
    n_atoms = rng.randint(1, 4)
    pairs = {}
    while len(pairs) < n_atoms:
        den = rng.randint(1, 12)
        pairs[Fraction(rng.randint(0, den), den)] = None
    locs = sorted(pairs)
    raw = [Fraction(rng.randint(1, 9)) for _ in locs]
    total = sum(raw)
    return model.MixingMeasure(tuple((p, w / total) for p, w in zip(locs, raw)))


def cmd_oracle(args: argparse.Namespace) -> int:
    N = args.N
    if N > 10:
        raise DomainError(f"exhaustive oracle sweep capped at N = 10, got {N}")
    rng = random.Random(args.seed)
    trials = 5
    max_gap = Fraction(0)
    for _ in range(trials):
        mu = _random_rational_measure(rng)
        law = oracle.word_law_from_mixture(mu, N)
        mean_law = model.sample_mean_law(mu, N)
        for k in range(1, N + 1):
            brute = oracle.all_prefix_probs(law, k)
            for bits in range(1 << k):
                pattern = PrefixEvent(
                    tuple((bits >> (k - 1 - j)) & 1 for j in range(k))
                )
                v1 = brute[bits]
                v2 = model.mixture_prefix_prob(mu, pattern)
                v3 = model.prefix_prob_from_mean_law(mean_law, pattern)
                max_gap = max(max_gap, abs(v1 - v2), abs(v1 - v3))
    _emit_json(
        {
            "N": N,
            "seed": args.seed,
            "trials": trials,
            "max_abs_gap": max_gap,
        },
        args.out,
    )
    return EXIT_OK if max_gap == 0 else EXIT_INVARIANT


def cmd_tail_check(args: argparse.Namespace) -> int:
    tb = harness.tail_bounds_check(args.N, args.pattern.k, args.pattern.alpha)
    doc = {
        "N": tb.N,
        "k": tb.k,
        "alpha": tb.alpha,
        "M1": tb.bounds.M1,
        "M2": tb.bounds.M2,
        "lower": (
            {
                "applicable": True,
                "sum": tb.lower_sum,
                "chain_mid": tb.lower_chain_mid,
                "cap": tb.lower_cap,
                "ok": tb.lower_ok,
            }
            if tb.lower_applicable
            else {"applicable": False}
        ),
        "upper": (
            {
                "applicable": True,
                "max": tb.upper_max,
                "cap": tb.upper_cap,
                "ok": tb.upper_ok,
            }
            if tb.upper_applicable
            else {"applicable": False}
        ),
    }
    _emit_json(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    """-N, --stride and --level: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _pattern(text: str) -> PrefixEvent:
    """--pattern as a PrefixEvent."""
    try:
        return PrefixEvent.from_string(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


OPTIONS = {   # flag: add_argument keywords
    "--backend": {"choices": ["exact", "log", "auto"], "default": "auto"},
    "--measure": {"help": "measure JSON file"},
    "--moments": {"help": "moments JSON file"},
    "--law": {"help": "count-law JSON file"},
    "--out": {"help": "output path (default stdout)"},
    "-N": {"type": _positive_int, "dest": "N"},
    "--pattern": {"type": _pattern, "help": "comma list of 0/1, e.g. 1,1,0"},
    "--stride": {"type": _positive_int, "default": 1},
    "--level": {"type": _positive_int},
    "--seed": {"type": int, "default": 0},
}

# name: (handler, help, the options it requires, the other options it reads);
# a tuple among the required options is a group of which exactly one is given
COMMANDS = {
    "prefix-prob": (cmd_prefix_prob, "prefix probability of a pattern",
                    (("--measure", "--moments", "--law"), "--pattern"), ("--out",)),
    "yn-law": (cmd_yn_law, "law of the sample mean over 0..N",
               ("--measure", "-N"), ("--out",)),
    "verify": (cmd_verify, "two-sided verification report",
               (("--measure", "--law"), "--pattern"), ("--backend", "--out", "-N")),
    "ratio-scan": (cmd_ratio_scan, "per-index kernel ratio scan (CSV)",
                   ("-N", "--pattern"), ("--backend", "--out", "--stride")),
    "recover": (cmd_recover, "recover a measure from moments",
                ("--moments", "--level"), ("--out",)),
    "extend-check": (cmd_extend_check, "complete monotonicity check",
                     ("--moments",), ("--out",)),
    "oracle": (cmd_oracle, "word-sweep agreement check", (), ("--out", "-N", "--seed")),
    "tail-check": (cmd_tail_check, "tail-bound verification",
                   ("-N", "--pattern"), ("--out",)),
}
# defaults a subcommand sets for itself: the sweep's size when -N is left out
COMMAND_DEFAULTS = {"oracle": {"N": 6}}


@functools.cache
def _plain_options(command: str):
    """``_plain_parse``'s table for a subcommand: its required groups (a
    required flag is a group of one), each flag's (dest, type, choices), and
    each dest's default, read from OPTIONS, COMMANDS and COMMAND_DEFAULTS."""
    _, _, required, optional = COMMANDS[command]
    groups = [entry if isinstance(entry, tuple) else (entry,) for entry in required]
    flags, defaults = {}, {}
    for flag in itertools.chain(*groups, optional):
        keywords = OPTIONS[flag]
        dest = keywords.get("dest", flag.lstrip("-"))
        flags[flag] = (dest, keywords.get("type"), keywords.get("choices"))
        defaults[dest] = keywords.get("default")
    return groups, flags, {**defaults, **COMMAND_DEFAULTS.get(command, {})}


def _plain_parse(argv: list[str]) -> argparse.Namespace | None:
    """The options of a plainly spelled command line, read straight from the
    option table: a subcommand, then ``flag value`` pairs in which each flag
    is one the subcommand declares, given once, with a value that does not
    start with "-" and passes its type and choices, and each required flag
    or source group given exactly once.  Any other line gives None, and
    argparse reads it."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    groups, flags, defaults = _plain_options(argv[0])
    values, given = dict(defaults), set()
    for flag, text in zip(argv[1::2], argv[2::2]):
        if flag not in flags or flag in given or text.startswith("-"):
            return None
        given.add(flag)
        dest, kind, choices = flags[flag]
        try:
            values[dest] = text if kind is None else kind(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and values[dest] not in choices:
            return None
    if any(len(given.intersection(group)) != 1 for group in groups):
        return None
    return argparse.Namespace(**values)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and each subcommand's own, built on first use, once
    per process, and only for a command line that is not plainly spelled
    (``_plain_parse``)."""
    parser = argparse.ArgumentParser(
        prog="definetti",
        description="Finite-N diagnostics for exchangeable Bernoulli mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, required, optional) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for entry in required:
            if isinstance(entry, tuple):
                group = command_parser.add_mutually_exclusive_group(required=True)
                for flag in entry:
                    group.add_argument(flag, **OPTIONS[flag])
            else:
                command_parser.add_argument(entry, required=True, **OPTIONS[entry])
        for flag in optional:
            command_parser.add_argument(flag, **OPTIONS[flag])
    for command, defaults in COMMAND_DEFAULTS.items():
        sub.choices[command].set_defaults(**defaults)
    return parser, sub.choices


def parse_args(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """(subcommand, its options) from argv.  A plainly spelled line is read
    by ``_plain_parse``; argparse reads every other.  A subcommand named
    first is parsed by its own parser, so a usage error shows that
    subcommand's usage line; anything else (no arguments, -h, an unknown
    name) goes to the parser of every subcommand.  A usage error exits 2
    with argparse's usage text."""
    args = _plain_parse(argv)
    if args is not None:
        return argv[0], args
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        return argv[0], commands[argv[0]].parse_args(argv[1:])
    args = parser.parse_args(argv)
    return args.command, args


def main(argv: list[str] | None = None) -> int:
    command, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return COMMANDS[command][0](args)
    except tuple(ERRORS) as exc:
        kind, code = next(v for t, v in ERRORS.items() if isinstance(exc, t))
        doc = {"error": kind, "message": str(exc)}
        if isinstance(exc, ExtendabilityError):
            doc["certificate"] = exc.value
        print(_JSON.encode(doc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
