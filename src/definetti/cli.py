"""Command-line surface.

Subcommands: prefix-prob, yn-law, verify, ratio-scan, recover, extend-check,
oracle, tail-check.  All reports are JSON (exact values as "num/den"
strings); ratio scans are CSV with a trailing summary JSON line.

Exit codes: 0 success, 2 input/domain errors, 3 invariant violations
(invalid input objects and failed internal guards), 4 extendability
rejection.  Any other exception is a bug and propagates as a traceback.
"""

from __future__ import annotations

import argparse
import json
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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    lines = []
    if scan.log_columns:
        lines.append("i,log_a,log_b,ratio,region")
    else:
        lines.append("i,a,b,ratio,region")
    for row in scan.rows:
        if scan.log_columns:
            a_txt = repr(row.a)
            b_txt = repr(row.b)
            ratio_txt = "" if row.ratio is None else repr(float(row.ratio))
        else:
            a_txt = io.format_value(row.a)
            b_txt = io.format_value(row.b)
            ratio_txt = "" if row.ratio is None else str(io.format_value(row.ratio))
        lines.append(f"{row.i},{a_txt},{b_txt},{ratio_txt},{row.region}")
    summary = {
        "eps_mid": io.format_value(scan.eps_mid),
        "r": io.format_value(scan.r),
        "M1": scan.bounds.M1,
        "M2": scan.bounds.M2,
        "stride": scan.stride,
        "sampled": scan.sampled,
        "backend": scan.backend,
    }
    lines.append(json.dumps(summary))
    _emit("\n".join(lines) + "\n", cfg.out_path)
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
