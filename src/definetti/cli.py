"""Command-line surface.

Subcommands: prefix-prob, yn-law, verify, ratio-scan, recover, extend-check,
oracle, tail-check.  All reports are JSON (exact values as "num/den"
strings); ratio scans are CSV with a trailing summary JSON line.

ratio-scan formats its CSV in SCAN_BLOCK_ROWS-row blocks and writes them in
order.  Scans of at least SCAN_POOL_MIN_ROWS rows format them on worker
processes, one per usable CPU, at most SCAN_MAX_WORKERS and never more than
there are blocks; smaller scans, and one usable CPU, format in-process.  The
bytes do not depend on the CPU count, and at most one block per worker is in
flight.

Exit codes: 0 success, 2 input/domain errors, 3 invariant violations
(invalid input objects and failed internal guards), 4 extendability
rejection.  Any other exception is a bug and propagates as a traceback.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import harness, io, model, oracle, recovery
from .model import ExtendabilityError, PrefixEvent, ValidationError
from .numerics import DomainError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_EXTENDABILITY = 4

SCAN_BLOCK_ROWS = 65_536   # ratio-scan CSV rows formatted per write
# Smaller scans format in-process: below about six blocks, starting spawn or
# forkserver workers (an interpreter and a numpy import each) costs more
# than it saves.
SCAN_POOL_MIN_ROWS = 6 * SCAN_BLOCK_ROWS
# Each worker adds 25-45 MB to the process tree; 4 bound that while keeping
# the parent (about 7 ms of its own per 245 ms block) far from saturated.
SCAN_MAX_WORKERS = 4


@dataclass
class RunConfig:
    backend: str = "auto"
    N: int | None = None
    k: int | None = None
    pattern: PrefixEvent | None = None
    stride: int = 1
    measure_path: str | None = None
    moments_path: str | None = None
    law_path: str | None = None
    out_path: str | None = None
    level: int | None = None
    seed: int = 0


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        backend=getattr(args, "backend", "auto"),
        N=getattr(args, "N", None),
        stride=getattr(args, "stride", 1),
        measure_path=getattr(args, "measure", None),
        moments_path=getattr(args, "moments", None),
        law_path=getattr(args, "law", None),
        out_path=getattr(args, "out", None),
        level=getattr(args, "level", None),
        seed=getattr(args, "seed", 0),
    )
    raw = getattr(args, "pattern", None)
    if raw is not None:
        try:
            cfg.pattern = PrefixEvent.from_string(raw)
        except ValidationError as exc:
            raise io.InputFormatError(str(exc)) from exc
        cfg.k = cfg.pattern.k
    return cfg


@contextlib.contextmanager
def _output(out_path: str | None):
    """The --out file opened for writing, or stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _emit_json(doc, out_path: str | None) -> None:
    _emit(json.dumps(doc) + "\n", out_path)


def _report_doc(rep: harness.VerificationReport) -> dict:
    fmt = io.format_value
    return {
        "N": rep.N,
        "k": rep.k,
        "alpha": rep.alpha,
        "M1": rep.M1,
        "M2": rep.M2,
        "backend": rep.backend,
        "lhs": fmt(rep.lhs),
        "rhs": fmt(rep.rhs),
        "abs_diff": fmt(rep.abs_diff),
        "lhs_lower": fmt(rep.lhs_lower),
        "lhs_mid": fmt(rep.lhs_mid),
        "lhs_upper": fmt(rep.lhs_upper),
        "rhs_lower": fmt(rep.rhs_lower),
        "rhs_mid": fmt(rep.rhs_mid),
        "rhs_upper": fmt(rep.rhs_upper),
        "eps_mid": fmt(rep.eps_mid),
        "eps_mid_sampled": rep.eps_mid_sampled,
        "sandwich_bound": fmt(rep.sandwich_bound),
        "lower_tail_bound": rep.lower_tail_bound,
        "upper_tail_bound": rep.upper_tail_bound,
        "pathological": rep.pathological,
        "pathological_label": rep.pathological_label,
        "rhs_below_alpha": fmt(rep.rhs_below_alpha),
        "rhs_above_support": fmt(rep.rhs_above_support),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_prefix_prob(cfg: RunConfig) -> int:
    if cfg.pattern is None:
        raise io.InputFormatError("--pattern is required")
    if cfg.measure_path:
        mu = io.load_measure(cfg.measure_path)
        value = model.mixture_prefix_prob(mu, cfg.pattern)
    elif cfg.moments_path:
        c = io.load_moments(cfg.moments_path)
        value = model.prefix_prob_from_moments(c, cfg.pattern)
    elif cfg.law_path:
        law = io.load_law(cfg.law_path)
        value = model.prefix_prob_from_mean_law(law, cfg.pattern)
    else:
        raise io.InputFormatError("one of --measure, --moments, --law is required")
    _emit_json({"value": io.format_value(value)}, cfg.out_path)
    return EXIT_OK


def cmd_yn_law(cfg: RunConfig) -> int:
    if cfg.measure_path is None:
        raise io.InputFormatError("--measure is required")
    if cfg.N is None:
        raise io.InputFormatError("-N is required")
    mu = io.load_measure(cfg.measure_path)
    law = model.sample_mean_law(mu, cfg.N)
    _emit_json(
        {"N": law.N, "q": [io.format_value(q) for q in law.weights]}, cfg.out_path
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.pattern is None:
        raise io.InputFormatError("--pattern is required")
    if cfg.law_path:
        source = io.load_law(cfg.law_path)
        rep = harness.verify_approximation(source, cfg.pattern, backend=cfg.backend)
    elif cfg.measure_path:
        if cfg.N is None:
            raise io.InputFormatError("-N is required with --measure")
        source = io.load_measure(cfg.measure_path)
        rep = harness.verify_approximation(
            source, cfg.pattern, N=cfg.N, backend=cfg.backend
        )
    else:
        raise io.InputFormatError("one of --measure, --law is required")
    _emit_json(_report_doc(rep), cfg.out_path)
    return EXIT_OK


def _scan_blocks(scan: harness.RatioScan):
    """The scan's columns in SCAN_BLOCK_ROWS-row blocks, each a tuple of slices."""
    for start in range(0, len(scan.i), SCAN_BLOCK_ROWS):
        block = slice(start, start + SCAN_BLOCK_ROWS)
        yield (scan.log_columns, scan.i[block], scan.a[block], scan.b[block],
               scan.ratio[block], scan.region[block])


def _format_block(columns) -> str:
    """CSV rows of one block from ``_scan_blocks``, as one string."""
    log_columns, i, a, b, ratio, region = columns
    names = harness.REGION_NAMES
    if log_columns:
        # "{}" formats a Python float as its shortest repr; NaN marks an
        # absent ratio
        a_col = a.tolist()
        b_col = b.tolist()
        ratio_col = ["" if x != x else repr(x) for x in ratio.tolist()]
    else:
        fmt = io.format_value
        a_col = map(fmt, a)
        b_col = map(fmt, b)
        ratio_col = ("" if x is None else fmt(x) for x in ratio)
    return "".join(map(
        "{},{},{},{},{}\n".format,
        i.tolist(),
        a_col,
        b_col,
        ratio_col,
        (names[c] for c in region.tolist()),
    ))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan_workers(rows: int) -> int:
    """Block workers for a ``rows``-row scan: 1 (in-process) below
    SCAN_POOL_MIN_ROWS, else one per usable CPU, at most SCAN_MAX_WORKERS
    and never more than there are blocks."""
    if rows < SCAN_POOL_MIN_ROWS:
        return 1
    return min(_usable_cpus(), SCAN_MAX_WORKERS, -(-rows // SCAN_BLOCK_ROWS))


def _format_worker(conn, parent_conns) -> None:
    """Worker process: format each block received on ``conn`` and send back
    its text, or the exception that formatting raised.  Returns quietly when
    the parent goes away or the user interrupts: the parent reports that.

    A forked worker holds copies of the parent's ends of the pipes made so
    far, its own among them; it closes them, or a killed parent would leave
    it waiting on a pipe that never reaches EOF.
    """
    for parent_conn in parent_conns:
        parent_conn.close()
    try:
        while True:
            columns = conn.recv()
            try:
                text = _format_block(columns)
            except Exception as exc:
                text = exc
            conn.send(text)
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        pass


def _raised(text):
    """A worker's reply: its text, or the exception it relayed, raised here."""
    if isinstance(text, Exception):
        raise text
    return text


@contextlib.contextmanager
def _block_formatter(workers: int):
    """A lazy map of ``_format_block`` over blocks, in block order, on
    ``workers`` processes; the builtin ``map`` below 2 workers.

    Block j goes to worker j mod ``workers``, which gets its next block as
    soon as its previous text is back, so at most one block per worker is
    in flight.  The parent receives the texts on its own thread: a helper
    thread would unpickle them into a malloc arena of its own, which holds
    on to its peak.  The workers are gone when the block exits, also when
    the consumer raises.
    """
    if workers < 2:
        yield lambda blocks: map(_format_block, blocks)
        return
    import multiprocessing   # only a multi-block ratio-scan pays for this import

    conns, procs = [], []

    def format_blocks(blocks):
        pending = collections.deque()
        for columns, conn in zip(blocks, itertools.cycle(conns)):
            text = pending.popleft().recv() if len(pending) == workers else None
            conn.send(columns)
            pending.append(conn)
            if text is not None:
                yield _raised(text)
        while pending:
            yield _raised(pending.popleft().recv())

    try:
        for _ in range(workers):
            conn, child_conn = multiprocessing.Pipe()
            conns.append(conn)
            proc = multiprocessing.Process(
                target=_format_worker, args=(child_conn, conns), daemon=True
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
        yield format_blocks
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def cmd_ratio_scan(cfg: RunConfig) -> int:
    if cfg.pattern is None:
        raise io.InputFormatError("--pattern is required (supplies k and alpha)")
    if cfg.N is None:
        raise io.InputFormatError("-N is required")
    scan = harness.ratio_scan(
        cfg.N,
        cfg.pattern.k,
        cfg.pattern.alpha,
        stride=cfg.stride,
        backend=cfg.backend,
    )
    summary = {
        "eps_mid": io.format_value(scan.eps_mid),
        "r": io.format_value(scan.r),
        "M1": scan.bounds.M1,
        "M2": scan.bounds.M2,
        "stride": scan.stride,
        "sampled": scan.sampled,
        "backend": scan.backend,
    }
    workers = _scan_workers(len(scan.i))
    with _output(cfg.out_path) as fh, _block_formatter(workers) as format_blocks:
        if scan.log_columns:
            fh.write("i,log_a,log_b,ratio,region\n")
        else:
            fh.write("i,a,b,ratio,region\n")
        fh.writelines(format_blocks(_scan_blocks(scan)))
        fh.write(json.dumps(summary) + "\n")
    return EXIT_OK


def cmd_recover(cfg: RunConfig) -> int:
    if cfg.moments_path is None:
        raise io.InputFormatError("--moments is required")
    if cfg.level is None:
        raise io.InputFormatError("--level is required")
    c = io.load_moments(cfg.moments_path)
    rec = recovery.recover_from_moments(c, cfg.level)
    _emit_json(io.measure_to_doc(rec.measure, level=rec.level), cfg.out_path)
    return EXIT_OK


def cmd_extend_check(cfg: RunConfig) -> int:
    if cfg.moments_path is None:
        raise io.InputFormatError("--moments is required")
    c = io.load_moments(cfg.moments_path)
    check = model.check_complete_monotonicity(c)
    if check.ok:
        _emit_json({"result": "accept", "order": c.order}, cfg.out_path)
        return EXIT_OK
    _emit_json(
        {
            "result": "reject",
            "certificate": io.format_value(check.value),
            "difference_order": check.order,
            "index": check.index,
        },
        cfg.out_path,
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


def cmd_oracle(cfg: RunConfig) -> int:
    N = cfg.N if cfg.N is not None else 6
    if N > 10:
        raise DomainError(f"exhaustive oracle sweep capped at N = 10, got {N}")
    if N < 1:
        raise DomainError("N must be positive")
    rng = random.Random(cfg.seed)
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
            "seed": cfg.seed,
            "trials": trials,
            "max_abs_gap": io.format_value(max_gap),
        },
        cfg.out_path,
    )
    return EXIT_OK if max_gap == 0 else EXIT_INVARIANT


def cmd_tail_check(cfg: RunConfig) -> int:
    if cfg.pattern is None:
        raise io.InputFormatError("--pattern is required (supplies k and alpha)")
    if cfg.N is None:
        raise io.InputFormatError("-N is required")
    tb = harness.tail_bounds_check(cfg.N, cfg.pattern.k, cfg.pattern.alpha)
    fmt = io.format_value
    doc = {
        "N": tb.N,
        "k": tb.k,
        "alpha": tb.alpha,
        "M1": tb.bounds.M1,
        "M2": tb.bounds.M2,
        "lower": (
            {
                "applicable": True,
                "sum": fmt(tb.lower_sum),
                "chain_mid": fmt(tb.lower_chain_mid),
                "cap": tb.lower_cap,
                "ok": tb.lower_ok,
            }
            if tb.lower_applicable
            else {"applicable": False}
        ),
        "upper": (
            {
                "applicable": True,
                "max": fmt(tb.upper_max),
                "cap": tb.upper_cap,
                "ok": tb.upper_ok,
            }
            if tb.upper_applicable
            else {"applicable": False}
        ),
    }
    _emit_json(doc, cfg.out_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="definetti",
        description="Finite-N diagnostics for exchangeable Bernoulli mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n=False, pattern=False, stride=False, level=False, seed=False):
        p.add_argument("--backend", choices=["exact", "log", "auto"], default="auto")
        p.add_argument("--measure", help="measure JSON file")
        p.add_argument("--moments", help="moments JSON file")
        p.add_argument("--law", help="count-law JSON file")
        p.add_argument("--out", help="output path (default stdout)")
        if n:
            p.add_argument("-N", type=int, dest="N")
        if pattern:
            p.add_argument("--pattern", help="comma list of 0/1, e.g. 1,1,0")
        if stride:
            p.add_argument("--stride", type=int, default=1)
        if level:
            p.add_argument("--level", type=int)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    handlers = {}
    p = sub.add_parser("prefix-prob", help="prefix probability of a pattern")
    add_common(p, pattern=True)
    handlers["prefix-prob"] = cmd_prefix_prob

    p = sub.add_parser("yn-law", help="law of the sample mean over 0..N")
    add_common(p, n=True)
    handlers["yn-law"] = cmd_yn_law

    p = sub.add_parser("verify", help="two-sided verification report")
    add_common(p, n=True, pattern=True)
    handlers["verify"] = cmd_verify

    p = sub.add_parser("ratio-scan", help="per-index kernel ratio scan (CSV)")
    add_common(p, n=True, pattern=True, stride=True)
    handlers["ratio-scan"] = cmd_ratio_scan

    p = sub.add_parser("recover", help="recover a measure from moments")
    add_common(p, level=True)
    handlers["recover"] = cmd_recover

    p = sub.add_parser("extend-check", help="complete monotonicity check")
    add_common(p)
    handlers["extend-check"] = cmd_extend_check

    p = sub.add_parser("oracle", help="word-sweep agreement check")
    add_common(p, n=True, seed=True)
    handlers["oracle"] = cmd_oracle

    p = sub.add_parser("tail-check", help="tail-bound verification")
    add_common(p, n=True, pattern=True)
    handlers["tail-check"] = cmd_tail_check

    parser.set_defaults(_handlers=handlers)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args._handlers[args.command]
    try:
        cfg = _config_from_args(args)
        return handler(cfg)
    except ExtendabilityError as exc:
        print(
            json.dumps(
                {
                    "error": "extendability",
                    "message": str(exc),
                    "certificate": io.format_value(exc.value),
                }
            ),
            file=sys.stderr,
        )
        return EXIT_EXTENDABILITY
    except io.InputFormatError as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except (ValidationError, AssertionError) as exc:
        print(json.dumps({"error": "invariant", "message": str(exc)}), file=sys.stderr)
        return EXIT_INVARIANT
    except DomainError as exc:
        print(json.dumps({"error": "domain", "message": str(exc)}), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
