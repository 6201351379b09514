import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from definetti import _kernels, cli, harness, io
from definetti.cli import main
from definetti.numerics import (
    conditional_prefix_prob,
    default_table,
    iid_kernel,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def fair_file(tmp_path):
    return write_json(tmp_path, "fair.json", {"atoms": [{"p": "1/2", "w": "1"}]})


@pytest.fixture
def three_atom_file(tmp_path):
    return write_json(
        tmp_path,
        "three.json",
        {
            "atoms": [
                {"p": "1/5", "w": "3/10"},
                {"p": "1/2", "w": "2/5"},
                {"p": "9/10", "w": "3/10"},
            ]
        },
    )


@pytest.fixture
def polya_file(tmp_path):
    return write_json(tmp_path, "polya.json", {"c": ["1", "1/2", "1/3", "1/4"]})


# ---------------------------------------------------------------------------
# prefix-prob
# ---------------------------------------------------------------------------

def test_prefix_prob_measure(fair_file, capsys):
    code, out, _ = run_cli(
        ["prefix-prob", "--measure", fair_file, "--pattern", "1,1,0"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"value": "1/8"}


def test_prefix_prob_from_moments(polya_file, capsys):
    code, out, _ = run_cli(
        ["prefix-prob", "--moments", polya_file, "--pattern", "1,1"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"value": "1/3"}


def test_prefix_prob_bad_weights_exit3(tmp_path, capsys):
    bad = write_json(
        tmp_path, "bad.json", {"atoms": [{"p": "1/2", "w": "9/10"}]}
    )
    code, _, err = run_cli(
        ["prefix-prob", "--measure", bad, "--pattern", "1"], capsys
    )
    assert code == 3
    assert "sum" in json.loads(err)["message"]


def test_prefix_prob_malformed_json_exit2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(
        ["prefix-prob", "--measure", str(path), "--pattern", "1"], capsys
    )
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_prefix_prob_missing_source_exit2(capsys):
    code, _, err = run_cli(["prefix-prob", "--pattern", "1"], capsys)
    assert code == 2


def test_malformed_pattern_exit2(fair_file, capsys):
    code, _, err = run_cli(
        ["prefix-prob", "--measure", fair_file, "--pattern", "1,x"], capsys
    )
    assert code == 2
    code, _, err = run_cli(
        ["prefix-prob", "--measure", fair_file, "--pattern", "1,2"], capsys
    )
    assert code == 2


# ---------------------------------------------------------------------------
# yn-law / verify
# ---------------------------------------------------------------------------

def test_yn_law_exact_strings(fair_file, capsys):
    code, out, _ = run_cli(["yn-law", "--measure", fair_file, "-N", "2"], capsys)
    assert code == 0
    assert json.loads(out) == {"N": 2, "q": ["1/4", "1/2", "1/4"]}


def test_verify_k1_zero_diff(fair_file, capsys):
    code, out, _ = run_cli(
        ["verify", "--measure", fair_file, "-N", "100", "--pattern", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["abs_diff"] == "0"
    assert doc["lhs"] == "1/2"
    assert doc["pathological"] is False


def test_verify_pathological_law(tmp_path, capsys):
    law = write_json(tmp_path, "law.json", {"q": ["1"] + ["0"] * 50})
    code, out, _ = run_cli(
        ["verify", "--law", law, "--pattern", "1,1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pathological"] is True
    assert doc["lhs"] == "0"


def test_verify_report_soundness_fields(three_atom_file, capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "--measure",
            three_atom_file,
            "-N",
            "500",
            "--pattern",
            "1,1,0,1",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    from fractions import Fraction

    assert Fraction(doc["abs_diff"]) <= Fraction(doc["sandwich_bound"])
    assert doc["backend"] == "exact"
    assert doc["M1"] == 7 and doc["N"] == 500


# ---------------------------------------------------------------------------
# ratio-scan
# ---------------------------------------------------------------------------

def test_ratio_scan_k1_all_ones(capsys):
    code, out, _ = run_cli(
        ["ratio-scan", "-N", "1000", "--pattern", "1", "--backend", "exact"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,a,b,ratio,region"
    summary = json.loads(lines[-1])
    assert summary["eps_mid"] == "0" and summary["r"] == "1"
    assert summary["M1"] == 10 and summary["M2"] == 969
    mid_ratios = {
        row.split(",")[3]
        for row in lines[1:-1]
        if row.split(",")[4] == "mid"
    }
    assert mid_ratios == {"1"}   # exact backend: rationals, not decimals


def test_ratio_scan_log_header_flag(capsys):
    code, out, _ = run_cli(
        ["ratio-scan", "-N", "4000", "--pattern", "1,0", "--stride", "13"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,log_a,log_b,ratio,region"
    summary = json.loads(lines[-1])
    assert summary["backend"] == "log" and summary["sampled"] is True


def test_ratio_scan_small_n_exit2(capsys):
    code, _, err = run_cli(["ratio-scan", "-N", "7", "--pattern", "1"], capsys)
    assert code == 2
    assert "regions" in json.loads(err)["message"]


def test_ratio_scan_large_n_eps_shrinks(capsys):
    pattern = "1,1,0,0,0"  # k=5, alpha=2
    code, out_small, _ = run_cli(
        ["ratio-scan", "-N", "10000", "--pattern", pattern], capsys
    )
    assert code == 0
    code, out_big, _ = run_cli(
        ["ratio-scan", "-N", "1000000", "--pattern", pattern, "--stride", "97"],
        capsys,
    )
    assert code == 0
    eps_small = json.loads(out_small.strip().split("\n")[-1])["eps_mid"]
    eps_big = json.loads(out_big.strip().split("\n")[-1])["eps_mid"]
    assert eps_big < eps_small


def _reference_scan_csv(N, k, alpha, stride, backend):
    """The ratio-scan CSV built one row at a time: math.exp of each log ratio,
    repr of each float, format_value of each Fraction, and eps_mid as a
    running maximum over the mid rows."""
    b = region_bounds(N)
    forced = [0, b.M1, b.M1 + 1, b.M2, min(b.M2 + 1, N), N]
    idx = np.unique(np.concatenate([np.arange(0, N + 1, stride), forced]))
    fmt = io.format_value
    if backend == "log":
        table = default_table()
        table.ensure(N)
        log_a, log_b = _kernels.scan_log_ab(table.delta, N, k, alpha, idx)
        r, eps = replacement_correction_float(N, k), 0.0
        lines = ["i,log_a,log_b,ratio,region"]
    else:
        r, eps = replacement_correction(N, k), Fraction(0)
        lines = ["i,a,b,ratio,region"]
    for pos, i in enumerate(map(int, idx)):
        region = b.region_of(i)
        ratio = None
        if backend == "log":
            a, bi = float(log_a[pos]), float(log_b[pos])
            if bi != -math.inf and not (a == -math.inf and i < alpha):
                ratio = 0.0 if a == -math.inf else math.exp(a - bi)
            a_txt, b_txt = repr(a), repr(bi)
            ratio_txt = "" if ratio is None else repr(ratio)
        else:
            a, bi = conditional_prefix_prob(N, k, alpha, i), iid_kernel(N, k, alpha, i)
            if bi != 0 and not (a == 0 and i < alpha):
                ratio = a / bi
            a_txt, b_txt = fmt(a), fmt(bi)
            ratio_txt = "" if ratio is None else fmt(ratio)
        if ratio is not None and region == "mid":
            eps = max(eps, abs(ratio - 1))
        lines.append(f"{i},{a_txt},{b_txt},{ratio_txt},{region}")
    summary = {"eps_mid": fmt(eps), "r": fmt(r), "M1": b.M1, "M2": b.M2,
               "stride": stride, "sampled": stride > 1, "backend": backend}
    lines.append(json.dumps(summary))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "backend, N, stride",
    [("log", 10**4, 1), ("log", 10**4, 13), ("exact", 300, 1), ("exact", 300, 7)],
)
@pytest.mark.parametrize("pattern", ["1,1,0,1", "1,1,1", "0,1"])
def test_ratio_scan_csv_matches_row_writer(backend, N, stride, pattern, tmp_path, capsys):
    bits = [int(x) for x in pattern.split(",")]
    expected = _reference_scan_csv(N, len(bits), sum(bits), stride, backend)
    argv = ["ratio-scan", "--backend", backend, "-N", str(N), "--stride", str(stride),
            "--pattern", pattern]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected
    out_file = tmp_path / "scan.csv"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert out_file.read_bytes() == expected.encode()


@pytest.fixture
def small_blocks(monkeypatch):
    """997-row CSV blocks, so block edges fall inside regions, and workers
    for scans of any size."""
    monkeypatch.setattr(cli, "SCAN_BLOCK_ROWS", 997)
    monkeypatch.setattr(cli, "SCAN_POOL_MIN_ROWS", 0)


@pytest.fixture(params=sorted(multiprocessing.get_all_start_methods()))
def start_method(request):
    original = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(original, force=True)


def _record_workers(monkeypatch):
    """Record the worker count of every ratio-scan block formatter."""
    counts = []
    formatter = cli._block_formatter

    def recording(workers):
        counts.append(workers)
        return formatter(workers)

    monkeypatch.setattr(cli, "_block_formatter", recording)
    return counts


@pytest.mark.parametrize("backend, N", [("log", 10**4), ("exact", 3000)])
@pytest.mark.parametrize("cpus", ["one", "all"])
def test_ratio_scan_csv_multi_block(backend, N, cpus, small_blocks, tmp_path, monkeypatch,
                                    capsys):
    # the real CPU count or 1, never more: a test starts no more processes
    # than the machine has CPUs
    usable = cli._usable_cpus() if cpus == "all" else 1
    monkeypatch.setattr(cli, "_usable_cpus", lambda: usable)
    workers = _record_workers(monkeypatch)
    expected = _reference_scan_csv(N, 4, 3, 1, backend)
    argv = ["ratio-scan", "--backend", backend, "-N", str(N), "--pattern", "1,1,0,1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected
    out_file = tmp_path / "scan.csv"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert out_file.read_bytes() == expected.encode()
    assert workers == [min(usable, cli.SCAN_MAX_WORKERS, -(-(N + 1) // 997))] * 2
    assert multiprocessing.active_children() == []


def test_scan_workers_threshold_and_cap(monkeypatch):
    # only counts: no process starts here, so the CPU count may exceed the machine's
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    below = cli.SCAN_POOL_MIN_ROWS - 1
    assert cli._scan_workers(below) == 1
    assert cli._scan_workers(cli.SCAN_POOL_MIN_ROWS) == min(
        cli.SCAN_MAX_WORKERS, -(-cli.SCAN_POOL_MIN_ROWS // cli.SCAN_BLOCK_ROWS)
    )
    assert cli._scan_workers(10**8) == cli.SCAN_MAX_WORKERS
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli._scan_workers(10**8) == 1


def test_ratio_scan_below_pool_threshold_starts_no_workers(tmp_path, monkeypatch):
    # two blocks, but too few rows to repay starting workers
    N = cli.SCAN_BLOCK_ROWS + 10
    assert N + 1 < cli.SCAN_POOL_MIN_ROWS
    workers = _record_workers(monkeypatch)
    out_file = tmp_path / "scan.csv"
    argv = ["ratio-scan", "-N", str(N), "--pattern", "1,0", "--out", str(out_file)]
    assert main(argv) == 0
    assert out_file.read_bytes() == _reference_scan_csv(N, 2, 1, 1, "log").encode()
    assert workers == [1]
    assert multiprocessing.active_children() == []


def test_ratio_scan_csv_under_every_start_method(start_method, small_blocks, tmp_path):
    expected = _reference_scan_csv(10**4, 3, 1, 1, "log")
    out_file = tmp_path / "scan.csv"
    argv = ["ratio-scan", "-N", "10000", "--pattern", "0,1,0", "--out", str(out_file)]
    assert main(argv) == 0
    assert out_file.read_bytes() == expected.encode()
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_ratio_scan_failed_write_leaves_no_workers(small_blocks):
    # /dev/full fails the first block write with ENOSPC
    with pytest.raises(OSError):
        main(["ratio-scan", "-N", "10000", "--pattern", "1,0", "--out", "/dev/full"])
    assert multiprocessing.active_children() == []


_EXIT_WITHOUT_STOPPING_WORKERS = """
import multiprocessing, os, sys
from definetti import cli
with cli._block_formatter(2):
    with open(sys.argv[1], "w") as fh:
        fh.write(" ".join(str(p.pid) for p in multiprocessing.active_children()))
    os._exit(0)
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
@pytest.mark.skipif(cli._usable_cpus() < 2, reason="needs 2 CPUs for 2 workers")
def test_workers_exit_when_the_parent_dies(tmp_path):
    # os._exit skips the formatter's cleanup, as SIGKILL or the OOM killer would
    pid_file = tmp_path / "pids"
    proc = subprocess.run([sys.executable, "-c", _EXIT_WITHOUT_STOPPING_WORKERS, str(pid_file)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    assert proc.returncode == 0
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if _running(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert survivors == []


def test_block_formatter_relays_worker_errors():
    # a malformed block makes _format_block raise inside a worker
    bad_block = (True, None, None, None, None, None)
    with cli._block_formatter(min(2, cli._usable_cpus())) as format_blocks:
        with pytest.raises(AttributeError):
            list(format_blocks([bad_block, bad_block, bad_block]))
    assert multiprocessing.active_children() == []


class _ClosedConn:
    def __init__(self, exc):
        self.exc = exc

    def recv(self):
        raise self.exc


@pytest.mark.parametrize("exc", [EOFError, KeyboardInterrupt])
def test_format_worker_returns_quietly_when_parent_goes(exc):
    # a closed pipe or Ctrl-C ends a worker without a traceback of its own
    assert cli._format_worker(_ClosedConn(exc()), []) is None


def test_verify_large_n_log_backend_sound(three_atom_file, capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "--measure",
            three_atom_file,
            "-N",
            "10000",
            "--pattern",
            "1,1,0,1",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["backend"] == "log"
    assert doc["abs_diff"] <= doc["sandwich_bound"] * (1 + 1e-12)
    assert doc["eps_mid_sampled"] is False


# ---------------------------------------------------------------------------
# recover / extend-check
# ---------------------------------------------------------------------------

def test_recover_polya(tmp_path, capsys):
    moments = write_json(tmp_path, "m.json", {"c": ["1", "1/2", "1/3"]})
    code, out, _ = run_cli(["recover", "--moments", moments, "--level", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == 2
    assert doc["atoms"] == [
        {"p": "0", "w": "1/3"},
        {"p": "1/2", "w": "1/3"},
        {"p": "1", "w": "1/3"},
    ]


def test_recover_rejects_with_certificate(tmp_path, capsys):
    moments = write_json(tmp_path, "m.json", {"c": ["1", "1/2", "0", "0"]})
    code, _, err = run_cli(["recover", "--moments", moments, "--level", "3"], capsys)
    assert code == 4
    assert json.loads(err)["certificate"] == "-1/2"


def test_recover_point_mass_profile(tmp_path, capsys):
    moments = write_json(
        tmp_path, "m.json", {"c": ["1", "1/2", "1/4", "1/8", "1/16"]}
    )
    code, out, _ = run_cli(["recover", "--moments", moments, "--level", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [a["w"] for a in doc["atoms"]] == ["1/16", "1/4", "3/8", "1/4", "1/16"]


def test_extend_check_accept_and_reject(tmp_path, polya_file, capsys):
    code, out, _ = run_cli(["extend-check", "--moments", polya_file], capsys)
    assert code == 0
    assert json.loads(out)["result"] == "accept"
    bad = write_json(tmp_path, "bad.json", {"c": ["1", "1/2", "0", "0"]})
    code, out, _ = run_cli(["extend-check", "--moments", bad], capsys)
    assert code == 4
    doc = json.loads(out)
    assert doc["result"] == "reject" and doc["certificate"] == "-1/2"


# ---------------------------------------------------------------------------
# oracle / tail-check
# ---------------------------------------------------------------------------

def test_oracle_zero_gap(capsys):
    code, out, _ = run_cli(["oracle", "-N", "5", "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["max_abs_gap"] == "0"


def test_oracle_cap_exit2(capsys):
    code, _, err = run_cli(["oracle", "-N", "21"], capsys)
    assert code == 2


def test_oracle_seed_sweep(capsys):
    for seed in range(1, 11):
        code, out, _ = run_cli(["oracle", "-N", "8", "--seed", str(seed)], capsys)
        assert code == 0
        assert json.loads(out)["max_abs_gap"] == "0"


def test_tail_check(capsys):
    code, out, _ = run_cli(
        ["tail-check", "-N", "10000", "--pattern", "1,0,0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"]["applicable"] is True and doc["lower"]["ok"] is True
    assert doc["upper"]["applicable"] is True and doc["upper"]["ok"] is True
    assert doc["M1"] == 21


def test_tail_check_not_applicable_sides(capsys):
    code, out, _ = run_cli(
        ["tail-check", "-N", "10000", "--pattern", "0,0,0"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == {"applicable": False}
    assert doc["upper"]["applicable"] is True


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def test_out_flag_writes_file(fair_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        [
            "prefix-prob",
            "--measure",
            fair_file,
            "--pattern",
            "1,1",
            "--out",
            str(target),
        ],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"value": "1/4"}


def test_yn_law_output_feeds_verify_law_input(three_atom_file, tmp_path, capsys):
    # the emitted law JSON is valid --law input and gives the same report
    law_path = tmp_path / "law.json"
    code, _, _ = run_cli(
        [
            "yn-law",
            "--measure",
            three_atom_file,
            "-N",
            "60",
            "--out",
            str(law_path),
        ],
        capsys,
    )
    assert code == 0
    code, out_law, _ = run_cli(
        ["verify", "--law", str(law_path), "--pattern", "1,0,1"], capsys
    )
    assert code == 0
    code, out_mu, _ = run_cli(
        ["verify", "--measure", three_atom_file, "-N", "60", "--pattern", "1,0,1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out_law) == json.loads(out_mu)


@pytest.mark.parametrize("pattern", ["1", "1,0,1", "1,1,0,1"])
def test_exact_law_file_verifies_byte_identical_to_measure(three_atom_file, tmp_path,
                                                           pattern, capsys):
    law_path = tmp_path / "law.json"
    argv = ["yn-law", "--measure", three_atom_file, "-N", "2000", "--out", str(law_path)]
    assert run_cli(argv, capsys)[0] == 0
    law = io.load_law(str(law_path))
    assert law.integer_form() is not None   # loaded as integer numerators
    _, out_law, _ = run_cli(["verify", "--law", str(law_path), "--pattern", pattern], capsys)
    _, out_mu, _ = run_cli(
        ["verify", "--measure", three_atom_file, "-N", "2000", "--pattern", pattern], capsys
    )
    assert out_law == out_mu


@pytest.mark.parametrize(
    "q, code, value",
    [
        (["2/4", "1/4", "1/4"], 0, "3/8"),        # unreduced entries are fine
        ([0, "1/3", "0006/9"], 0, "5/6"),
        (["1/2", "+1/4", " 1/4 "], 0, "3/8"),     # other spellings parse as before
        (["1/2", 0.25, "1/4"], 0, 0.375),          # a float entry: float law
        (["1/0", "1"], 2, None),
        (["1/2", "1/-2"], 2, None),
        (["1/2", "x"], 2, None),
        (["1/2", True], 2, None),
        (["1/2"], 2, None),
        (["-1/2", "3/2"], 3, None),
        (["1/2", "1/3"], 3, None),
    ],
)
def test_law_file_entries(q, code, value, tmp_path, capsys):
    path = write_json(tmp_path, "law.json", {"q": q})
    got, out, _ = run_cli(["prefix-prob", "--law", path, "--pattern", "1"], capsys)
    assert got == code
    if value is not None:
        assert json.loads(out)["value"] == value


def test_determinism_byte_identical(three_atom_file):
    cmd = [
        sys.executable,
        "-m",
        "definetti.cli",
        "verify",
        "--measure",
        three_atom_file,
        "-N",
        "300",
        "--pattern",
        "1,0,1",
    ]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_oracle_determinism_in_process(capsys):
    code1, out1, _ = run_cli(["oracle", "-N", "4", "--seed", "9"], capsys)
    code2, out2, _ = run_cli(["oracle", "-N", "4", "--seed", "9"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# exact values past CPython's int<->str digit limit
# ---------------------------------------------------------------------------

@pytest.fixture
def eighth_file(tmp_path):
    # denominators 8^5000: 4516 digits, past the default limit of 4300
    return write_json(tmp_path, "eighth.json", {"atoms": [{"p": "1/8", "w": "1"}]})


def test_io_round_trip_past_digit_limit():
    limit = sys.get_int_max_str_digits()
    x = Fraction(7**6000 + 1, 2**20000)
    text = io.format_value(x)
    assert len(text) > 2 * limit
    assert io.parse_value(text) == x
    assert sys.get_int_max_str_digits() == limit   # restored, not left lifted
    with pytest.raises(io.InputFormatError):
        io.parse_value("1/x" + "1" * 5000)


def test_exact_yn_law_n5000_round_trips_through_law(eighth_file, tmp_path, capsys):
    law_path = tmp_path / "law.json"
    code, _, _ = run_cli(
        ["yn-law", "--measure", eighth_file, "-N", "5000", "--out", str(law_path)],
        capsys,
    )
    assert code == 0
    q = json.loads(law_path.read_text())["q"]
    assert len(q) == 5001 and max(map(len, q)) > 2 * sys.get_int_max_str_digits()
    # k = 1: the law's mean, E[S_N / N] = 1/8
    code, out, _ = run_cli(
        ["verify", "--law", str(law_path), "--pattern", "1", "--backend", "log"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["lhs"] == pytest.approx(0.125, rel=1e-12, abs=0)


def test_exact_verify_n5000_exits_0(eighth_file, capsys):
    code, out, _ = run_cli(
        ["verify", "--backend", "exact", "--measure", eighth_file, "-N", "5000",
         "--pattern", "1,0,1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lhs"] == "7/512"   # (1/8)^2 (7/8), the finite de Finetti value
    assert io.parse_value(doc["abs_diff"]) <= io.parse_value(doc["sandwich_bound"])
    assert max(len(v) for v in doc.values() if isinstance(v, str)) > 4300


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def _violate_ratio_bound(monkeypatch):
    # a correction constant below the true ratio trips the scan's guard
    monkeypatch.setattr(harness, "replacement_correction_float", lambda N, k: 0.5)


def _vanish_conditional_weights(monkeypatch):
    # lhs = 0 with interior kernel mass trips the pathological-run guard
    accumulate = harness._exact_fields

    def without_lhs(*args):
        parts, below, above = accumulate(*args)
        parts = {key: Fraction(0) if key[0] == "a" else v for key, v in parts.items()}
        return parts, below, above

    monkeypatch.setattr(harness, "_exact_fields", without_lhs)


@pytest.mark.parametrize(
    "argv, patch, code, error",
    [
        (["prefix-prob", "--measure", "{fair}", "--pattern", "1"], None, 0, None),
        (["prefix-prob", "--measure", "{broken}", "--pattern", "1"], None, 2, "input"),
        (["ratio-scan", "-N", "7", "--pattern", "1"], None, 2, "domain"),
        (["prefix-prob", "--measure", "{bad}", "--pattern", "1"], None, 3, "invariant"),
        (["ratio-scan", "-N", "4000", "--pattern", "1,0"], _violate_ratio_bound, 3,
         "invariant"),
        (["verify", "--law", "{law}", "--pattern", "1,0"], _vanish_conditional_weights, 3,
         "invariant"),
        (["recover", "--moments", "{bad_moments}", "--level", "3"], None, 4,
         "extendability"),
    ],
)
def test_exit_codes(argv, patch, code, error, fair_file, tmp_path, monkeypatch, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    files = {
        "fair": fair_file,
        "broken": str(broken),
        "bad": write_json(tmp_path, "bad.json", {"atoms": [{"p": "1/2", "w": "9/10"}]}),
        "law": write_json(tmp_path, "law.json", {"q": ["1/4", "1/4", "1/4", "0"] + ["0"] * 6 + ["1/4"]}),
        "bad_moments": write_json(tmp_path, "m.json", {"c": ["1", "1/2", "0", "0"]}),
    }
    if patch is not None:
        patch(monkeypatch)
    got, _, err = run_cli([arg.format(**files) for arg in argv], capsys)
    assert got == code
    if error is not None:
        assert json.loads(err)["error"] == error


def test_unexpected_errors_are_not_mapped_to_exit_codes(fair_file, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not an input problem")

    monkeypatch.setattr(harness, "verify_approximation", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["verify", "--measure", fair_file, "-N", "100", "--pattern", "1"])


def test_verify_has_no_stride_option(fair_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--measure", fair_file, "-N", "100", "--pattern", "1",
              "--stride", "3"])
    assert exc.value.code == 2
