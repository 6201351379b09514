"""Seeded workloads: input generators, independent references and output checks.

Every op is one ``definetti`` CLI invocation on JSON files written here.  The
inputs come from ``random.Random`` seeded with the workload name, the
benchmark seed and the op's slot, so a seed always gives the same files.

The *shape* of each slot (N, number of atoms, location denominators, k,
moment order, accept or reject) follows a fixed cycle that is the same for
every seed; the seed picks the values inside the shape.  Op cost depends on
the shape far more than on the values, so runs with different seeds do the
same amount of work and their timings can be compared.

References are written here from the mathematics, not taken from the
package: the finite de Finetti identity for prefix probabilities, binomial
factorial moments for the kernel side, falling-factorial products for the
scan kernels, and integer alternating sums for moment sequences.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

OK, FAILED, WRONG = "ok", "failed", "wrong"
DIGIT_LIMIT = "Exceeds the limit"  # CPython's int->str conversion error text
DIGIT_LIMIT_FAILURE = "exit 2: int->str digit limit"


@dataclass
class Op:
    argv: list[str]
    # check(exit code or None if an exception escaped, stdout, stderr)
    #   -> (OK | FAILED | WRONG, reason)
    check: Callable[[int | None, str, str], tuple[str, str]]
    out_path: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    max_n: int            # largest N: the table size every invocation grows to
    slots: int            # length of the shape cycle; a run does whole cycles
    trace_slots: int      # slots in one traced pass
    make: Callable[[random.Random, int, str], list[Op]]
    # Failure reasons (from ``exit_failure``) that are known defects of the
    # program, counted in ``failed`` but not making the run incorrect.
    expected_failures: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def region_cuts(N: int) -> tuple[int, int]:
    """M1 = floor(N^(1/3)), M2 = floor(N - sqrt(N)) + 1, by integer search.

    floor(N - sqrt N) is the largest m with (N - m)^2 >= N, that is
    N - t for the least t with t^2 >= N.
    """
    m1 = int(round(N ** (1 / 3)))
    while m1**3 > N:
        m1 -= 1
    while (m1 + 1) ** 3 <= N:
        m1 += 1
    t = math.isqrt(N)
    if t * t < N:
        t += 1
    return m1, N - t + 1


def falling(x: int, m: int) -> int:
    out = 1
    for j in range(m):
        out *= x - j
    return out


def mixture_prefix(atoms, k: int, alpha: int):
    """P(prefix with alpha ones in k) = sum_w w p^alpha (1-p)^(k-alpha)."""
    terms = [w * p**alpha * (1 - p) ** (k - alpha) for p, w in atoms]
    if isinstance(terms[0], float):
        return math.fsum(terms)
    return sum(terms, Fraction(0))


def _stirling2(m: int) -> list[int]:
    row = [1]  # S(0, 0)
    for n in range(1, m + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, n + 1)]
    return row


def mixture_kernel_mean(atoms, N: int, k: int, alpha: int) -> Fraction:
    """E[(S/N)^alpha (1 - S/N)^(k-alpha)] for S ~ Bin(N, p), p drawn from the atoms.

    Expands (N - S)^beta binomially and uses the binomial factorial moments
    E[S^m] = sum_j S2(m, j) N(N-1)..(N-j+1) p^j.
    """
    beta = k - alpha
    total = Fraction(0)
    for p, w in atoms:
        acc = Fraction(0)
        for t in range(beta + 1):
            m = alpha + t
            s2 = _stirling2(m)
            raw = sum(
                (s2[j] * falling(N, j) * p**j for j in range(m + 1)), Fraction(0)
            )
            acc += (-1) ** t * math.comb(beta, t) * N ** (beta - t) * raw
        total += w * acc
    return total / N**k


def log_cond_prefix(N: int, k: int, alpha: int, i: int) -> float:
    """log C(N-k, i-alpha)/C(N, i) = log of falling(i, alpha) falling(N-i, k-alpha) / falling(N, k)."""
    num = falling(i, alpha) * falling(N - i, k - alpha) if i >= alpha else 0
    if num <= 0:
        return float("-inf")
    return math.log(num) - math.log(falling(N, k))


def log_iid_kernel(N: int, k: int, alpha: int, i: int) -> float:
    num = i**alpha * (N - i) ** (k - alpha)
    if num == 0:
        return float("-inf")
    return math.log(num) - k * math.log(N)


# ---------------------------------------------------------------------------
# generators shared by the workloads
# ---------------------------------------------------------------------------

def shape_atoms(slot: int) -> tuple[int, tuple[int, ...]]:
    """Shared location denominator d and numerator classes a <= d/2 for a slot.

    d runs over 2..12 in a scrambled order and the slot asks for
    1 + slot % 4 atoms, as many as d has classes.  Classes coprime to d come
    first, so the lcm of the reduced denominators is d.  Bignum cost grows
    with d and depends on the numerator (about 1.8 s for 1/12 against 2.7 s
    for 5/12 at N = 10^4), but not on the mirror choice a/d or (d-a)/d,
    which is what the seed picks.
    """
    d = 2 + (7 * slot) % 11
    classes = sorted(range(1, d // 2 + 1), key=lambda a: (math.gcd(a, d) != 1, a))
    return d, tuple(classes[: 1 + slot % 4])


def rational_atoms(rng: random.Random, shape) -> list[tuple[Fraction, Fraction]]:
    """Atoms at a/d or (d-a)/d, seeded; weights r/sum(r) with r in 1..9.

    Distinct classes a <= d/2 give distinct locations whatever the mirror choices.
    """
    d, classes = shape
    locs = [Fraction(rng.choice((a, d - a)), d) for a in classes]
    raw = [rng.randint(1, 9) for _ in locs]
    total = sum(raw)
    return sorted((p, Fraction(r, total)) for p, r in zip(locs, raw))


def slot_pattern(rng: random.Random, slot: int) -> list[int]:
    """A 0/1 pattern of length k = 2 + slot % 5 with alpha = (3 slot + 1) % (k + 1) ones.

    k and alpha are part of the shape because they decide which kernel
    branches run and so the op's memory; the seed places the ones.
    """
    k = 2 + slot % 5
    ones = set(rng.sample(range(k), (3 * slot + 1) % (k + 1)))
    return [int(j in ones) for j in range(k)]


def write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def exit_failure(rc, err: str) -> tuple[str, str]:
    if rc is None:
        return FAILED, "exception escaped main: " + err.strip().splitlines()[-1][:120]
    if rc == 2 and DIGIT_LIMIT in err:
        return FAILED, DIGIT_LIMIT_FAILURE
    return FAILED, f"exit {rc}: {err.strip()[:120]}"


def _mismatch(checks) -> tuple[str, str]:
    for label, ok in checks:
        if not ok:
            return WRONG, label
    return OK, ""


# ---------------------------------------------------------------------------
# exact-verify
# ---------------------------------------------------------------------------

EXACT_SLOTS = 24
EXACT_N_MAX = 10_000
# Every second slot has this middle shape: N = 6000, two atoms in sevenths.
# Op cost spans about 300x over the other shapes and varies some 15% from
# run to run at equal inputs, so without a block of like ops the median op
# falls in a sparse stretch and jumps between runs.
EXACT_MIDDLE = (6000, (7, (1, 2)))


def exact_shape(slot: int) -> tuple[int, tuple[int, tuple[int, ...]]]:
    """(N, atom shape): the middle shape on even slots; on odd slots N steps
    evenly from 2000 to 10000 and the atoms follow ``shape_atoms``."""
    if slot % 2 == 0:
        return EXACT_MIDDLE
    j, steps = slot // 2, EXACT_SLOTS // 2 - 1
    return 2000 + round(j * (EXACT_N_MAX - 2000) / steps), shape_atoms(j)


def make_exact_verify(rng: random.Random, slot: int, workdir: str) -> list[Op]:
    N, shape = exact_shape(slot)
    atoms = rational_atoms(rng, shape)
    pattern = slot_pattern(rng, slot)
    k, alpha = len(pattern), sum(pattern)
    path = write_json(
        os.path.join(workdir, f"measure-{slot}.json"),
        {"atoms": [{"p": fmt(p), "w": fmt(w)} for p, w in atoms]},
    )
    m1, m2 = region_cuts(N)

    def check(rc, out, err):
        if rc != 0:
            return exit_failure(rc, err)
        doc = json.loads(out)
        F = Fraction
        lhs, rhs = F(doc["lhs"]), F(doc["rhs"])
        diff, bound = F(doc["abs_diff"]), F(doc["sandwich_bound"])
        return _mismatch([
            ("backend is exact", doc["backend"] == "exact"),
            ("N, k, alpha echo the input", (doc["N"], doc["k"], doc["alpha"]) == (N, k, alpha)),
            ("M1, M2 equal the region cuts", (doc["M1"], doc["M2"]) == (m1, m2)),
            ("lhs equals the mixture prefix probability", lhs == mixture_prefix(atoms, k, alpha)),
            ("rhs equals the binomial kernel mean", rhs == mixture_kernel_mean(atoms, N, k, alpha)),
            ("abs_diff equals |lhs - rhs|", diff == abs(lhs - rhs)),
            ("abs_diff <= sandwich_bound", diff <= bound),
        ])

    argv = ["verify", "--backend", "exact", "--measure", path, "-N", str(N),
            "--pattern", ",".join(map(str, pattern))]
    return [Op(argv, check)]


# ---------------------------------------------------------------------------
# log-verify
# ---------------------------------------------------------------------------

LOG_N = 10_000_000
LOG_LHS_RTOL = 1e-8
# Float slack on the sandwich inequality.  It is a tolerance for float
# rounding in the log backend, not a derived error envelope; the package
# states none yet.
LOG_BOUND_SLACK = 1e-9

LOG_SLOTS = 5  # k = 2..6, one each


def make_log_verify(rng: random.Random, slot: int, workdir: str) -> list[Op]:
    n_atoms = 1 + slot % 4
    ps = set()
    while len(ps) < n_atoms:
        ps.add(rng.uniform(0.05, 0.95))
    raw = [rng.uniform(1.0, 9.0) for _ in ps]
    total = sum(raw)
    atoms = [(p, r / total) for p, r in zip(sorted(ps), raw)]
    pattern = slot_pattern(rng, slot)
    k, alpha = len(pattern), sum(pattern)
    path = write_json(
        os.path.join(workdir, f"measure-{slot}.json"),
        {"atoms": [{"p": p, "w": w} for p, w in atoms]},
    )
    m1, m2 = region_cuts(LOG_N)
    closed = mixture_prefix(atoms, k, alpha)

    def check(rc, out, err):
        if rc != 0:
            return exit_failure(rc, err)
        doc = json.loads(out)
        lhs, rhs = doc["lhs"], doc["rhs"]
        return _mismatch([
            ("backend is log", doc["backend"] == "log"),
            ("eps_mid from the full scan", doc["eps_mid_sampled"] is False),
            ("N, k, alpha echo the input", (doc["N"], doc["k"], doc["alpha"]) == (LOG_N, k, alpha)),
            ("M1, M2 equal the region cuts", (doc["M1"], doc["M2"]) == (m1, m2)),
            ("lhs within 1e-8 relative of the closed form",
             abs(lhs - closed) <= LOG_LHS_RTOL * closed),
            ("abs_diff equals |lhs - rhs|", doc["abs_diff"] == abs(lhs - rhs)),
            ("abs_diff <= sandwich_bound (1 + 1e-9)",
             doc["abs_diff"] <= doc["sandwich_bound"] * (1 + LOG_BOUND_SLACK)),
        ])

    argv = ["verify", "--measure", path, "-N", str(LOG_N),
            "--pattern", ",".join(map(str, pattern))]
    return [Op(argv, check)]


# ---------------------------------------------------------------------------
# ratio-scan
# ---------------------------------------------------------------------------

SCAN_N = 1_000_000
SCAN_SAMPLE_ROWS = 16
SCAN_LOG_ATOL = 1e-8
SCAN_HEADER = "i,log_a,log_b,ratio,region\n"


def make_ratio_scan(rng: random.Random, slot: int, workdir: str) -> list[Op]:
    N = SCAN_N
    pattern = slot_pattern(rng, slot)
    k, alpha = len(pattern), sum(pattern)
    m1, m2 = region_cuts(N)
    edges = {0, 1, m1, m1 + 1, m2, m2 + 1, N - 1, N}
    sample = edges | set(rng.sample(range(N + 1), SCAN_SAMPLE_ROWS - len(edges)))
    out_path = os.path.join(workdir, "scan.csv")

    def check(rc, out, err):
        if rc != 0:
            return exit_failure(rc, err)
        return check_scan_csv(out_path, N, k, alpha, sample)

    argv = ["ratio-scan", "-N", str(N), "--pattern", ",".join(map(str, pattern)),
            "--stride", "1", "--out", out_path]
    return [Op(argv, check, out_path=out_path)]


def check_scan_csv(path: str, N: int, k: int, alpha: int, sample) -> tuple[str, str]:
    """Stream the CSV once: row count and order, region labels, where the ratio
    column is present, eps_mid over the mid rows, and the sampled rows' logs."""
    m1, m2 = region_cuts(N)
    eps = 0.0
    seen = {}
    rows = 0
    with open(path) as fh:
        if fh.readline() != SCAN_HEADER:
            return WRONG, "log-backend CSV header"
        for lo, hi, region in ((0, m1, "lower"), (m1 + 1, m2, "mid"), (m2 + 1, N, "upper")):
            for i, line in zip(range(lo, hi + 1), fh):
                rows += 1
                fields = line.rstrip("\n").split(",")
                if len(fields) != 5 or fields[0] != str(i):
                    return WRONG, f"row {i} malformed or out of order"
                if fields[4] != region:
                    return WRONG, f"row {i} labelled {fields[4]}, expected {region}"
                b_zero = (i == 0 and alpha > 0) or (i == N and alpha < k)
                a_zero = i < alpha or i - alpha > N - k
                if (fields[3] != "") != (not b_zero and not (a_zero and i < alpha)):
                    return WRONG, f"row {i}: ratio presence"
                if region == "mid" and fields[3]:
                    eps = max(eps, abs(float(fields[3]) - 1.0))
                if i in sample:
                    seen[i] = (float(fields[1]), float(fields[2]))
            if rows != hi + 1:
                return WRONG, f"CSV has {rows} rows, expected {N + 1}"
        summary = json.loads(fh.readline())
        if fh.readline():
            return WRONG, "text after the summary line"
    r_exact = N**k / falling(N, k)
    checks = [
        ("summary eps_mid equals max |ratio - 1| over mid rows", summary["eps_mid"] == eps),
        ("summary M1, M2", (summary["M1"], summary["M2"]) == (m1, m2)),
        ("summary stride 1, not sampled, log backend",
         (summary["stride"], summary["sampled"], summary["backend"]) == (1, False, "log")),
        ("summary r within 1e-12 of N^k / N(N-1)..(N-k+1)",
         abs(summary["r"] - r_exact) <= 1e-12 * r_exact),
    ]
    for i, (la, lb) in sorted(seen.items()):
        for label, got, want in (
            ("log_a", la, log_cond_prefix(N, k, alpha, i)),
            ("log_b", lb, log_iid_kernel(N, k, alpha, i)),
        ):
            ok = got == want if math.isinf(want) else abs(got - want) <= SCAN_LOG_ATOL
            checks.append((f"row {i} {label} {got!r} vs exact {want!r}", ok))
    return _mismatch(checks)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

MOMENT_ORDERS = tuple(range(128, 257, 8))    # 128, 136, ..., 256
MOMENT_SLOTS = 2 * len(MOMENT_ORDERS)        # each order once accepted, once rejected


def _common_den(values) -> int:
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return den


def first_negative_level_weight(c: list[Fraction]):
    """First j with q_j = C(n, j) sum_t (-1)^t C(n-j, t) c_{j+t} < 0, as (j, q_j)."""
    n = len(c) - 1
    D = _common_den(c)
    C = [int(x * D) for x in c]
    for j in range(n + 1):
        s, binom = 0, 1
        for t in range(n - j + 1):
            s += binom * C[j + t] if t % 2 == 0 else -binom * C[j + t]
            binom = binom * (n - j - t) // (t + 1)
        if s < 0:
            return j, Fraction(math.comb(n, j) * s, D)
    return None


def first_negative_difference(c: list[Fraction]):
    """First negative (-1)^m Delta^m c_j, scanning m = 1..n and then j, as (m, j, value)."""
    D = _common_den(c)
    row = [int(x * D) for x in c]
    for m in range(1, len(c)):
        row = [row[j] - row[j + 1] for j in range(len(row) - 1)]
        for j, v in enumerate(row):
            if v < 0:
                return m, j, Fraction(v, D)
    return None


def make_moments(rng: random.Random, slot: int, workdir: str) -> list[Op]:
    n = MOMENT_ORDERS[slot // 2]
    reject = slot % 2 == 1
    atoms = rational_atoms(rng, shape_atoms(slot))
    c = [sum((w * p**j for p, w in atoms), Fraction(0)) for j in range(n + 1)]
    if reject:
        # raise c_{n/2} part of the way toward c_{n/2-1}: the vector stays
        # nonincreasing (a valid MomentVector) but is no longer completely
        # monotone.  The index is part of the shape because the reject path
        # stops near it.
        j = n // 2
        c[j] += Fraction(rng.randint(3, 9), 10) * (c[j - 1] - c[j])
        weight_cert = first_negative_level_weight(c)
        diff_cert = first_negative_difference(c)
        if weight_cert is None or diff_cert is None:
            raise RuntimeError(f"perturbed moments of slot {slot} are still extendable")
    path = write_json(os.path.join(workdir, f"moments-{slot}.json"), {"c": [fmt(x) for x in c]})

    def check_recover(rc, out, err):
        if reject:
            if rc != 4:
                return exit_failure(rc, err)
            doc = json.loads(err)
            return _mismatch([
                ("extendability error", doc.get("error") == "extendability"),
                ("certificate equals the first negative level-n weight",
                 Fraction(doc["certificate"]) == weight_cert[1] < 0),
            ])
        if rc != 0:
            return exit_failure(rc, err)
        doc = json.loads(out)
        locs = [Fraction(a["p"]) * n for a in doc["atoms"]]
        ws = [Fraction(a["w"]) for a in doc["atoms"]]
        idx = [int(x) for x in locs]
        if doc.get("level") != n or any(x.denominator != 1 for x in locs):
            return WRONG, "atoms not on the level-n grid i/n"
        L = _common_den(ws)
        W = [int(w * L) for w in ws]
        reproduced = all(
            Fraction(sum(Wi * math.comb(i, j) for Wi, i in zip(W, idx)), L * math.comb(n, j))
            == c[j]
            for j in range(n + 1)
        )
        return _mismatch([
            ("locations strictly increasing in [0, 1]",
             all(0 <= a < b <= n for a, b in zip(idx, idx[1:]))),
            ("weights positive", all(w > 0 for w in ws)),
            ("weights sum to exactly 1", sum(ws) == 1),
            ("recovered law reproduces every input c_j", reproduced),
        ])

    def check_extend(rc, out, err):
        if rc != (4 if reject else 0):
            return exit_failure(rc, err)
        doc = json.loads(out)
        if not reject:
            return _mismatch([("accept verdict", doc == {"result": "accept", "order": n})])
        m, j, value = diff_cert
        return _mismatch([
            ("reject verdict", doc.get("result") == "reject"),
            ("certificate equals the first negative alternating difference",
             Fraction(doc["certificate"]) == value < 0),
            ("certificate order and index", (doc["difference_order"], doc["index"]) == (m, j)),
        ])

    recover = Op(["recover", "--moments", path, "--level", str(n)], check_recover)
    extend = Op(["extend-check", "--moments", path], check_extend)
    if not reject:
        return [recover, extend]
    # A rejected file stops within milliseconds, so it gets one of the two
    # commands in turn.  With both, half the ops would be near-instant and
    # the median op would sit on the gap between the groups, where it jumps
    # from run to run.
    return [recover] if (slot // 2) % 2 == 0 else [extend]


WORKLOADS = {
    w.name: w
    for w in (
        # Reports past the int->str digit limit are a known defect (ROADMAP
        # item 5); the inputs are not chosen to avoid it.
        Workload("exact-verify", max_n=EXACT_N_MAX, slots=EXACT_SLOTS,
                 trace_slots=EXACT_SLOTS, make=make_exact_verify,
                 expected_failures=(DIGIT_LIMIT_FAILURE,)),
        Workload("log-verify", max_n=LOG_N, slots=LOG_SLOTS, trace_slots=2,
                 make=make_log_verify),
        Workload("ratio-scan", max_n=SCAN_N, slots=5, trace_slots=1,
                 make=make_ratio_scan),
        Workload("moments", max_n=MOMENT_ORDERS[-1], slots=MOMENT_SLOTS,
                 trace_slots=MOMENT_SLOTS, make=make_moments),
    )
}
