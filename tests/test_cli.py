import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from definetti import _blocktext, _kernels, cli, harness, io, model
from definetti.cli import main
from definetti.numerics import (
    conditional_prefix_prob,
    iid_kernel,
    region_bounds,
    replacement_correction,
    replacement_correction_float,
)

from conftest import kernel_mean


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


@pytest.mark.parametrize("text, code", [
    ('{\r\n  "atoms": [\r\n    {"p": "1/2", "w": "1"}\r\n  ]\r\n}\r\n', 0),
    ('\ufeff{"atoms": [{"p": "1/2", "w": "1"}]}', 2),
    ('{"atoms": [{"p": "1/2", "w": "1", "note": "\udcff"}]}', 2),
], ids=["crlf", "bom", "invalid-utf-8"])
def test_measure_file_encodings(text, code, tmp_path, capsys):
    # a file is read as UTF-8 bytes: CRLF line endings are JSON whitespace,
    # and a byte-order mark or a byte that is not UTF-8 is an input error
    path = tmp_path / "mu.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    got, out, err = run_cli(["prefix-prob", "--measure", str(path), "--pattern", "1,1,0"], capsys)
    assert got == code
    if code == 0:
        assert (json.loads(out), err) == ({"value": "1/8"}, "")
    else:
        assert out == "" and json.loads(err)["error"] == "input"


def usage_error(argv, capsys):
    """stderr of a command line that argparse refuses; it exits 2 and prints
    nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: definetti {argv[0]} ")
    return err


def test_prefix_prob_missing_source_exit2(capsys):
    err = usage_error(["prefix-prob", "--pattern", "1"], capsys)
    assert "one of the arguments --measure --moments --law is required" in err


def test_malformed_pattern_exit2(fair_file, capsys):
    err = usage_error(["prefix-prob", "--measure", fair_file, "--pattern", "1,x"], capsys)
    assert "argument --pattern: malformed pattern '1,x'" in err
    err = usage_error(["prefix-prob", "--measure", fair_file, "--pattern", "1,2"], capsys)
    assert "argument --pattern: pattern entries must be 0 or 1: (1, 2)" in err


# ---------------------------------------------------------------------------
# yn-law / verify
# ---------------------------------------------------------------------------

def test_yn_law_exact_strings(fair_file, capsys):
    code, out, _ = run_cli(["yn-law", "--measure", fair_file, "-N", "2"], capsys)
    assert code == 0
    assert json.loads(out) == {"N": 2, "q": ["1/4", "1/2", "1/4"]}


def test_yn_law_float_large_n_passes_its_own_sum_check(tmp_path, capsys):
    # the float law wraps in SampleMeanLaw, which requires |sum q - 1| <= 1e-12;
    # the law must not drift past that with N
    mu = write_json(tmp_path, "mu.json", {"atoms": [{"p": 0.1, "w": 0.5}, {"p": 0.9, "w": 0.5}]})
    code, out, err = run_cli(["yn-law", "--measure", mu, "-N", "100000"], capsys)
    assert (code, err) == (0, "")
    q = json.loads(out)["q"]
    assert len(q) == 100001 and abs(math.fsum(q) - 1.0) <= 1e-13


_UNDER_ADDRESS_LIMIT = """
import resource, sys
from definetti import cli
resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("atom, argv", [
    pytest.param('{"p": "1/2", "w": "1"}', ["yn-law"], id="exact-yn-law"),
    pytest.param('{"p": "1/2", "w": "1"}', ["verify", "--backend", "exact", "--pattern", "1,0"],
                 id="exact-verify"),
    pytest.param('{"p": 0.5, "w": 1.0}', ["yn-law"], id="float-yn-law"),
])
def test_count_law_too_large_to_hold_exit2(atom, argv, tmp_path):
    # N = 1e12 fits int64, but its count law does not fit any memory: a
    # domain error before any bignum or array work, under a 1.5 GB address
    # limit so that a regression fails here instead of exhausting the machine
    mu = tmp_path / "mu.json"
    mu.write_text('{"atoms": [%s]}' % atom)
    run = subprocess.run([sys.executable, "-c", _UNDER_ADDRESS_LIMIT, *argv, "--measure", str(mu),
                          "-N", "1000000000000"], capture_output=True, text=True, timeout=30)
    assert (run.returncode, run.stdout) == (2, "")
    [line] = run.stderr.splitlines()
    assert json.loads(line)["error"] == "domain"


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
        log_a, log_b = _kernels.scan_log_ab(_kernels.RESIDUALS, N, k, alpha, idx)
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


def _reference_format_block(block):
    """A log block's CSV rows by str.format over repr, one row at a time."""
    ratio = ["" if x != x else repr(x) for x in block.ratio.tolist()]
    regions = (harness.REGION_NAMES[c] for c in block.region.tolist())
    return "".join(map("{},{},{},{},{}\n".format, block.i.tolist(), block.a.tolist(),
                       block.b.tolist(), ratio, regions))


def _formats_as_reference(block, ws=None):
    return bytes(_blocktext._format_block(block, ws)) == _reference_format_block(block).encode()


@pytest.mark.parametrize("N", [1000, 10**4, 393215])
@pytest.mark.parametrize("pattern", ["1,1,0,0,0", "0,1", ",".join("1" * 23 + "0" * 17)],
                         ids=["1,1,0,0,0", "0,1", "k40"])
def test_format_block_matches_repr_rows(N, pattern):
    # one workspace for every block, as a scan stream has
    bits = [int(x) for x in pattern.split(",")]
    ws = _blocktext._Workspace(cli.SCAN_BLOCK_ROWS)
    for stride in (1, 13, 97):
        for block in harness.scan_blocks(N, len(bits), sum(bits), stride, "log", cli.SCAN_BLOCK_ROWS):
            assert _formats_as_reference(block, ws)


def _float_block(rng, rows, specials):
    """A log block of random float64 bit patterns with ``specials`` entries
    of each column drawn from NaN, the infinities, the zeros and +-1."""
    special = np.array([np.nan, -np.inf, np.inf, 0.0, -0.0, 1.0, -1.0])
    a, b, ratio = (rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64) for _ in range(3))
    for column in (a, b, ratio):
        column[rng.integers(0, rows, specials)] = rng.choice(special, specials)
    i = np.sort(rng.integers(0, 2**63 - 1, rows, dtype=np.int64))
    i[:3] = [0, 9, 10][:rows]
    region = rng.integers(0, 3, rows).astype(np.int8)
    return harness.RatioScan(2**63 - 1, 2, 1, region_bounds(10**6), i, a, b, ratio, region,
                             1.0, 0.0, 1, False, "log")


def test_format_block_matches_repr_rows_on_any_floats():
    # random bit patterns reach scientific notation and subnormals; NaN,
    # the infinities and the zeros take repr one at a time.  One workspace
    # formats blocks of several sizes in turn
    rng = np.random.default_rng(2024)
    ws = _blocktext._Workspace(5000)
    for rows, specials in ((5000, 300), (37, 5), (4999, 3000), (1, 1), (5000, 10)):
        assert _formats_as_reference(_float_block(rng, rows, specials), ws)


def _edge_block(rows):
    """A log block whose rows are NaN, the infinities and the zeros only."""
    column = np.resize(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]), rows)
    return harness.RatioScan(10**6, 2, 1, region_bounds(10**6), np.arange(rows, dtype=np.int64),
                             column, column[::-1].copy(), np.roll(column, 2), np.ones(rows, np.int8),
                             1.0, 0.0, 1, False, "log")


def test_format_block_reuses_its_workspace_without_stale_bytes():
    # long fields, then a short last block, then rows that print as
    # nan/inf/-inf/0.0/-0.0 or nothing, then a full block again: each text
    # equals the reference, so nothing of an earlier block shows through
    ws = _blocktext._Workspace(cli.SCAN_BLOCK_ROWS)
    full, _, last = harness.scan_blocks(20_000, 40, 23, 1, "log", cli.SCAN_BLOCK_ROWS)
    # 19-digit counts and 24-character floats such as -1.2345678901234567e-150
    wide = -1.2345678901234567e-150 * (1 + np.arange(cli.SCAN_BLOCK_ROWS) * 2.0**-40)
    long_fields = dataclasses.replace(full, i=full.i + 10**18, a=wide, b=wide[::-1].copy())
    assert len(last.i) < cli.SCAN_BLOCK_ROWS
    for block in (long_fields, last, _edge_block(cli.SCAN_BLOCK_ROWS), full):
        assert _formats_as_reference(block, ws)


def test_format_block_allocates_little_after_its_first_block():
    # the workspace is allocated with the first block; after it, formatting
    # an 8,192-row block raises the traced peak by under 1.5 times the text
    blocks = harness.scan_blocks(10**6, 5, 2, 1, "log", cli.SCAN_BLOCK_ROWS)
    ws = _blocktext._Workspace(cli.SCAN_BLOCK_ROWS)
    _blocktext._format_block(next(blocks), ws)
    block = next(blocks)
    assert len(block.i) == 8192
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        size = len(_blocktext._format_block(block, ws))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size, (peak, size)


@pytest.fixture
def small_blocks(monkeypatch):
    """997-row CSV blocks, so block edges fall inside regions, and workers
    for scans of any size."""
    monkeypatch.setattr(cli, "SCAN_BLOCK_ROWS", 997)
    monkeypatch.setattr(cli, "SCAN_POOL_MIN_ROWS", 0)


@pytest.fixture(params=sorted(multiprocessing.get_all_start_methods()))
def start_method(request):
    """Each start method a caller may set; the scan's workers fork under all."""
    original = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(original, force=True)


def _record_workers(monkeypatch):
    """Record the worker count of every ratio-scan block formatter."""
    counts = []
    formatter = cli._block_formatter

    def recording(plan, workers):
        counts.append(workers)
        return formatter(plan, workers)

    monkeypatch.setattr(cli, "_block_formatter", recording)
    return counts


def _record_starts(monkeypatch, record):
    """record(process) for every process that starts, in start order: a
    patch on BaseProcess.start, which ForkProcess takes where it would not
    see one on multiprocessing.Process.start."""
    seen = []
    start = multiprocessing.process.BaseProcess.start

    def recording(proc):
        seen.append(record(proc))
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return seen


# at k = 5 the "num/den" fields of an exact block take more than ROW_MAX
# bytes a row, the longest log row, and the pooled parent's buffer grows
@pytest.mark.parametrize("backend, N, pattern", [
    pytest.param("log", 10**4, "1,1,0,1", id="log-10000"),
    pytest.param("exact", 3000, "1,1,0,1", id="exact-3000"),
    pytest.param("exact", 3000, "1,1,0,0,0", id="exact-3000-k5"),
])
@pytest.mark.parametrize("cpus", ["one", "all"])
def test_ratio_scan_csv_multi_block(backend, N, pattern, cpus, small_blocks, tmp_path, monkeypatch,
                                    capsys):
    # the real CPU count or 1, never more: a test starts no more processes
    # than the machine has CPUs
    usable = cli._usable_cpus() if cpus == "all" else 1
    monkeypatch.setattr(cli, "_usable_cpus", lambda: usable)
    workers = _record_workers(monkeypatch)
    bits = [int(x) for x in pattern.split(",")]
    expected = _reference_scan_csv(N, len(bits), sum(bits), 1, backend)
    argv = ["ratio-scan", "--backend", backend, "-N", str(N), "--pattern", pattern]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected
    out_file = tmp_path / "scan.csv"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert out_file.read_bytes() == expected.encode()
    assert workers == [min(usable, cli.SCAN_MAX_WORKERS, -(-(N + 1) // 997))] * 2
    assert multiprocessing.active_children() == []


def test_ratio_scan_to_a_text_only_stdout(small_blocks):
    # a caller that swaps sys.stdout for a text stream captures the CSV, in
    # order after text written before it
    expected = _reference_scan_csv(10**4, 3, 1, 1, "log")
    with contextlib.redirect_stdout(StringIO()) as captured:
        print("before")
        assert main(["ratio-scan", "-N", "10000", "--pattern", "0,1,0"]) == 0
    assert captured.getvalue() == "before\n" + expected


def test_scan_workers_threshold_and_cap(monkeypatch):
    # only counts: no process starts here, so the CPU count may exceed the machine's
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    threshold = cli.SCAN_POOL_MIN_ROWS
    assert cli._scan_workers(threshold - 1) == 1
    assert cli._scan_workers(threshold) == min(
        cli.SCAN_MAX_WORKERS, -(-threshold // cli.SCAN_BLOCK_ROWS)
    )
    assert cli._scan_workers(10**8) == cli.SCAN_MAX_WORKERS
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli._scan_workers(10**8) == 1


def test_scan_workers_threshold_follows_the_start_method(start_method, monkeypatch):
    # counts only: the start method a caller set leaves the threshold as it is
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    threshold = cli.SCAN_POOL_MIN_ROWS
    assert (cli._scan_workers(threshold - 1), cli._scan_workers(threshold)) == (1, 2)


def test_scan_workers_off_linux_scan_in_process(monkeypatch):
    # counts only: where the pool cannot fork, every scan runs in-process
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for platform in ("darwin", "win32"):
        monkeypatch.setattr(sys, "platform", platform)
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


def test_ratio_scan_csv_under_every_start_method(start_method, small_blocks, tmp_path, monkeypatch):
    # the start method a caller set does not change how the workers start: they fork
    started = _record_starts(monkeypatch, lambda proc: proc._start_method)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out_file = tmp_path / "scan.csv"
    assert main(["ratio-scan", "-N", "10000", "--pattern", "0,1,0", "--out", str(out_file)]) == 0
    assert out_file.read_bytes() == _reference_scan_csv(10**4, 3, 1, 1, "log").encode()
    assert started == ["fork", "fork"]
    assert multiprocessing.active_children() == []


def test_workers_fork_from_the_only_python_thread(small_blocks, tmp_path, monkeypatch):
    # a fork copies only the forking thread, and with it any lock another
    # thread held; the CLI starts none.  numpy's BLAS may keep an idle OS
    # thread, which threading does not count and the workers never call into
    threads = _record_starts(monkeypatch, lambda proc: threading.active_count())
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out_file = tmp_path / "scan.csv"
    assert main(["ratio-scan", "-N", "10000", "--pattern", "1,0", "--out", str(out_file)]) == 0
    assert threads == [1, 1]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_ratio_scan_failed_write_leaves_no_workers(small_blocks):
    # /dev/full fails the first block write with ENOSPC
    with pytest.raises(OSError):
        main(["ratio-scan", "-N", "10000", "--pattern", "1,0", "--out", "/dev/full"])
    assert multiprocessing.active_children() == []


def test_ratio_scan_invariant_failure_mid_stream(start_method, small_blocks, monkeypatch, capsys):
    # for an all-ones pattern a_i / b_i = i^(k) N^k / (i^k N^(k)) with falling
    # factorials x^(k); a correction of 1/2 is first crossed past the blocks
    # that can be in flight, so earlier blocks are already written
    N, k = 20000, 100
    first = next(i for i in range(k, N + 1)
                 if 2 * math.perm(i, k) * N**k > i**k * math.perm(N, k))
    assert first // 997 > cli.SCAN_MAX_WORKERS
    monkeypatch.setattr(harness, "replacement_correction_float", lambda N, k: 0.5)
    code, out, err = run_cli(["ratio-scan", "-N", str(N), "--pattern", ",".join("1" * k)], capsys)
    assert code == 3
    [line] = err.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "invariant"
    assert doc["message"].startswith(f"ratio bound violated at i={first}: ")
    # whole blocks before the failing one, and no summary line
    rows = out.count("\n") - 1
    assert rows > 0 and rows % 997 == 0 and rows <= first
    assert out == _reference_scan_csv(N, k, k, 1, "log")[:len(out)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("block_rows", ["default", 997])
def test_ratio_scan_pool_threshold_is_in_rows(block_rows, tmp_path, monkeypatch):
    # one row short of the threshold: 25 blocks at the default size and 201
    # at 997 rows, and no worker at either
    if block_rows != "default":
        monkeypatch.setattr(cli, "SCAN_BLOCK_ROWS", block_rows)
    rows = cli.SCAN_POOL_MIN_ROWS - 1
    assert cli._scan_workers(rows) == 1
    workers = _record_workers(monkeypatch)
    out_file = tmp_path / "scan.csv"
    assert main(["ratio-scan", "-N", str(rows - 1), "--pattern", "1,0", "--out", str(out_file)]) == 0
    assert out_file.read_text().count("\n") == rows + 2
    assert workers == [1]
    assert multiprocessing.active_children() == []


def _in_process_scan_peak(N, out_file):
    """The tracemalloc peak, in MB, of an in-process ``ratio-scan`` to a file."""
    assert N + 1 < cli.SCAN_POOL_MIN_ROWS
    tracemalloc.start()
    try:
        code = main(["ratio-scan", "-N", str(N), "--pattern", "1,1,0,0,0", "--out", str(out_file)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out_file.read_text().count("\n") == N + 3
    return peak / 2**20


def test_ratio_scan_memory_does_not_grow_with_n(tmp_path, monkeypatch):
    # in-process (below the pool threshold) in 997-row blocks: the scan
    # holds one block at a time, where a whole scan at N = 1e5 took 8 MB
    monkeypatch.setattr(cli, "SCAN_BLOCK_ROWS", 997)
    peak = _in_process_scan_peak(100_000, tmp_path / "scan.csv")
    assert peak < 2, f"{peak:.2f} MB"


def test_ratio_scan_memory_at_the_default_block_size(tmp_path):
    # 5.0 MB at 8,192-row blocks, 4 MB of it the formatting workspace;
    # 65,536-row blocks took 23.3 MB
    peak = _in_process_scan_peak(100_000, tmp_path / "scan.csv")
    assert peak < 6, f"{peak:.2f} MB"


_EXIT_WITHOUT_STOPPING_WORKERS = """
import multiprocessing, os, sys
from definetti import cli, harness
with cli._block_formatter(harness._scan_plan(10**6, 2, 1, 1, "log", 997), 2):
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
    # a plan without its region bounds makes the block loop raise inside a worker
    plan = harness._scan_plan(10**4, 2, 1, 1, "log", 997)
    bad_plan = plan[:5] + (None,) + plan[6:]
    with cli._block_formatter(bad_plan, min(2, cli._usable_cpus())) as texts:
        with pytest.raises(AttributeError):
            list(texts)
    assert multiprocessing.active_children() == []


def test_forked_workers_inherit_the_digit_tables(monkeypatch):
    # the parent builds the digit kernel's tables before the first worker
    # forks, so that no worker builds them again
    filled = _record_starts(monkeypatch, lambda proc: (_kernels._phi_table.cache_info().currsize,
                                                       _blocktext._digit_tables.cache_info().currsize))
    _kernels._phi_table.cache_clear()
    _blocktext._digit_tables.cache_clear()
    with cli._block_formatter(harness._scan_plan(10**4, 2, 1, 1, "log", 997), 2) as texts:
        rows = b"".join(bytes(text) for text, _ in texts).decode()
    # the CSV between its header and its summary line
    assert rows == _reference_scan_csv(10**4, 2, 1, 1, "log").split("\n", 1)[1].rsplit("\n", 2)[0] + "\n"
    assert filled == [(1, 1), (1, 1)]
    assert multiprocessing.active_children() == []


class _ClosedConn:
    def __init__(self, exc):
        self.exc = exc

    def send(self, item):
        raise self.exc

    send_bytes = send


@pytest.mark.parametrize("exc", [BrokenPipeError, KeyboardInterrupt])
def test_format_worker_returns_quietly_when_parent_goes(exc):
    # a closed pipe or Ctrl-C ends a worker without a traceback of its own
    plan = harness._scan_plan(1000, 2, 1, 1, "log", 997)
    assert cli._format_worker(_ClosedConn(exc()), [], plan, 0, 1) is None


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


@pytest.mark.parametrize("n_arg, code", [([], 0), (["-N", "10"], 0), (["-N", "500"], 3)])
def test_verify_law_checks_n_against_the_law(n_arg, code, tmp_path, capsys):
    # -N is optional with --law; when given it must match the law's N
    path = write_json(tmp_path, "law.json", {"q": ["1/11"] * 11})
    argv = ["verify", "--law", path, "--pattern", "1,0"] + n_arg
    got, out, err = run_cli(argv, capsys)
    assert got == code
    if code == 0:
        assert (json.loads(out)["N"], err) == (10, "")
    else:
        assert out == ""
        assert json.loads(err) == {"error": "invariant", "message": "law has N=10, got N=500"}


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


GOLDEN_MEASURES = {
    "three": {"atoms": [{"p": "1/5", "w": "3/10"}, {"p": "1/2", "w": "2/5"},
                        {"p": "9/10", "w": "3/10"}]},
    "fair": {"atoms": [{"p": "1/2", "w": "1"}]},
    "interior": {"atoms": [{"p": 0.2, "w": 0.3}, {"p": 0.5, "w": 0.4},
                           {"p": 0.9, "w": 0.3}]},
}

# sha256 of `verify` stdout for (source, measure, N, pattern, backend): the
# report bytes, pinned.  Only outputs that depend on no platform: the exact
# backend is integer arithmetic, and a float measure whose atoms are all
# interior takes its log fields from exact moment totals, with no per-index
# numpy sums.  A law source is the measure's `yn-law` file.
REPORT_DIGESTS = {
    ("measure", "three", 101, "1,1,0,1", "exact"): "56d2fa597e42c6b4c6b521e41e3d652ba39f8a291bef4e331c1c42678d2aa360",
    ("measure", "three", 101, "1,0", "exact"): "fc2febb346963acea9a916826ca1c9d3f43776ae70430f4a5042bb0ab7927c70",
    ("measure", "three", 101, "0,0,0", "exact"): "ddd8fd3797f7e3d1988d7c1a28e9e006a16274fabcbaac9843c099933224e7df",
    ("measure", "three", 2000, "1,1,0,1", "exact"): "69388adde25175b9807b6df37c0734fcbbc233082642d7be60e0dbe6b27f5132",
    ("measure", "three", 2000, "1,0", "exact"): "4875bcf7a600dfc586c90dc66f140bcfe90fed106a4ba0a6dc1453459a1cf2ad",
    ("measure", "three", 2000, "0,0,0", "exact"): "95ff33ba491f8af75ac9a24c1b18e49b5f5ca3eb322ed343226ad86aa033a9b9",
    ("measure", "three", 5000, "1,1,0,1", "exact"): "d6859e159f76981e8a13fdbb618dd76ffb134d4c82fc4ae29094a2cf908628d1",
    ("measure", "three", 5000, "1,0", "exact"): "ec5692d57e9a6f870b73441b8e51de8b3a48c66a3fd711394843e9332667388b",
    ("measure", "three", 5000, "0,0,0", "exact"): "bf85e9baa8048a74722c48ddb2cd36bba2042faf6094bc871152bddaee345224",
    ("law", "three", 101, "1,1,1,0,0", "exact"): "69f43a6f305323f601d24eebf9b8cb3010ee537c7ac7f56e04c5e36621c54810",
    ("law", "three", 101, "0,1", "exact"): "fc2febb346963acea9a916826ca1c9d3f43776ae70430f4a5042bb0ab7927c70",
    ("law", "three", 2000, "1,1,1,0,0", "exact"): "7888f9a5c608f2277ad124210398f569c0f0cdec78004390a5ec3cfa11ab3e08",
    ("law", "three", 2000, "0,1", "exact"): "4875bcf7a600dfc586c90dc66f140bcfe90fed106a4ba0a6dc1453459a1cf2ad",
    ("law", "fair", 5000, "1,1,1,0,0", "exact"): "48d4f728e8927506bdb11a782f543dd5c1460d23a0f52b883e4c872f71dbb779",
    ("law", "fair", 5000, "0,1", "exact"): "ab2b6504d3129fc9a2792705ef81589d8707c37185d3f9f21c113a446eed66ff",
    ("measure", "interior", 100000, "1,1,0,1", "log"): "64eccb35b9903927c3ae0de39b7147677ff4f013608198398960a81129f58a72",
    ("measure", "interior", 100000, "1,0", "log"): "729a2fd5580d2ebb23daf39cd442baa519906187b9e7fab2fae9b4dde10b0787",
    ("measure", "interior", 100000, "0,0,0,0,1,1", "log"): "1ba879babefbbf22780779c82d1e7ca873bfefe0a30ff8e3e572122ed47f8183",
    ("measure", "interior", 10000000, "1,1,0,1", "log"): "be0adbe0c9f12e4b5d29d14afc91f4f9bd12ea38e7db70f3b129e28db4a30467",
    ("measure", "interior", 10000000, "1,0", "log"): "bbef5f8a72551a0cb8e11c294796654e156195c36e56d2e4f0375d45c98d7d4d",
    ("measure", "interior", 10000000, "0,0,0,0,1,1", "log"): "4c750144dc887409cf7593262934d5e8c2d57ced60b3435cdb9c44046b5c8ccf",
}


@pytest.fixture(scope="module")
def golden_source(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    made = {}

    def source(kind, name, N):
        if (kind, name, N) not in made:
            measure = root / f"{name}.json"
            measure.write_text(json.dumps(GOLDEN_MEASURES[name]))
            if kind == "measure":
                made[kind, name, N] = ["--measure", str(measure), "-N", str(N)]
            else:
                law = root / f"{name}-{N}.json"
                assert main(["yn-law", "--measure", str(measure), "-N", str(N),
                             "--out", str(law)]) == 0
                made[kind, name, N] = ["--law", str(law)]
        return made[kind, name, N]

    return source


@pytest.mark.parametrize("case, digest", list(REPORT_DIGESTS.items()))
def test_verify_report_bytes_golden(case, digest, golden_source, capsys):
    kind, name, N, pattern, backend = case
    if name == "interior":
        b = region_bounds(N)
        for atom in GOLDEN_MEASURES[name]["atoms"]:
            lo, hi = _kernels._atom_window(N, atom["p"])
            assert b.M1 < lo and hi <= b.M2
    argv = ["verify", *golden_source(kind, name, N), "--pattern", pattern,
            "--backend", backend]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


GOLDEN_MOMENTS = {
    "polya": {"c": ["1", "1/2", "1/3", "1/4"]},
    "bad": {"c": ["1", "1/2", "0", "0"]},
}

# sha256 of the document each command line writes, pinned: on stdout, in its
# --out file, or on stderr for a rejection that prints no report.  Every
# value in them comes from integer arithmetic; tail-check's two float caps
# are cut out before hashing.  {law} is the three-atom measure's N = 101
# `yn-law` file.
OUTPUT_DIGESTS = [   # (id, argv, exit code, document stream, sha256)
    ("prefix-prob-measure", ["prefix-prob", "--measure", "{three}",
                             "--pattern", "1,1,0,1"],
     0, "stdout", "4941b5f370048990aab25ef5b1039ba0a22858c9a4b6caa1587ff62b25b1fa1b"),
    ("prefix-prob-moments", ["prefix-prob", "--moments", "{polya}",
                             "--pattern", "1,0,1"],
     0, "stdout", "9531b23d4833cbe556e1505bfdf6e58724bab74990c151976f457ec011663ca1"),
    ("prefix-prob-law", ["prefix-prob", "--law", "{law}", "--pattern", "1,1,0,1"],
     0, "stdout", "4941b5f370048990aab25ef5b1039ba0a22858c9a4b6caa1587ff62b25b1fa1b"),
    ("yn-law", ["yn-law", "--measure", "{three}", "-N", "50"],
     0, "stdout", "75e0add8a2c3b1b6d6405f44e0548a046141f8126863f4ebd6f7b24471102f4c"),
    ("ratio-scan-exact", ["ratio-scan", "--backend", "exact", "-N", "200",
                          "--pattern", "1,1,0", "--out", "{out}"],
     0, "--out", "0ff8633e7939e6976c8afb5e59a206e5704fb7340a418080a543344a55e73ab1"),
    ("recover-accept", ["recover", "--moments", "{polya}", "--level", "3"],
     0, "stdout", "3ebafe4cd6b52d1e024b6cba295266518630550cc411d6d5ee57070c132d04a3"),
    ("recover-reject", ["recover", "--moments", "{bad}", "--level", "3"],
     4, "stderr", "accfbda86804eb2c07309326b9cfec0699a73e142dbb0f0fa498d1c243073dbf"),
    ("extend-check-accept", ["extend-check", "--moments", "{polya}"],
     0, "stdout", "431e0c6bd38dc76b0f214d0c1df0b3f2f89a1020d1372a0f73ede7bdf895bdf7"),
    ("extend-check-reject", ["extend-check", "--moments", "{bad}"],
     4, "stdout", "bb04274a20ee22345a4adce3fa2d68d9f4962caf8a76d3f15bebfe1b337b7715"),
    ("oracle", ["oracle", "-N", "8", "--seed", "1"],
     0, "stdout", "c7c0ccf515845261b236348ef2a820df6e5d0d76d10485a6d192d33d440db8e2"),
    ("tail-check", ["tail-check", "-N", "10000", "--pattern", "1,0,0"],
     0, "stdout", "f69f95b8a750a240df19d65775efb230aa191a0f29a0ddaec91c8c17c730185d"),
    # 10^5 upper-tail indices: the size where a per-index cost shows
    ("tail-check-1e10", ["tail-check", "-N", "10000000000", "--pattern", "1,0,0"],
     0, "stdout", "83b26a6830cac011e31271b95a53f03dea2dce647386154aaea4ee193be760ce"),
]


@pytest.mark.parametrize("argv, code, stream, digest",
                         [pytest.param(*case[1:], id=case[0]) for case in OUTPUT_DIGESTS])
def test_output_bytes_golden(argv, code, stream, digest, golden_source, tmp_path, capsys):
    files = {name: write_json(tmp_path, f"{name}.json", doc)
             for name, doc in GOLDEN_MOMENTS.items()}
    files["three"] = golden_source("measure", "three", 101)[1]
    files["law"] = golden_source("law", "three", 101)[1]
    files["out"] = str(tmp_path / "out.txt")
    got, out, err = run_cli([arg.format(**files) for arg in argv], capsys)
    assert got == code
    streams = {"stdout": out, "stderr": err}
    if stream == "--out":
        streams["--out"] = Path(files["out"]).read_text()
    text = streams.pop(stream)
    assert set(streams.values()) == {""}
    if argv[0] == "tail-check":
        text, cut = re.subn(r'"cap": [^,]+, ', "", text)
        assert cut == 2
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_json_integer_literal_past_digit_limit_exit2(tmp_path, capsys):
    # json parses an integer literal with int(), which refuses more than
    # 4,300 digits; a "n" string of the same number is read in full
    path = tmp_path / "c.json"
    path.write_text('{"c": [1, 1' + "0" * 4400 + ", 0]}")
    code, out, err = run_cli(["extend-check", "--moments", str(path)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "input"


def test_recover_certificate_past_digit_limit_exit4(tmp_path, capsys):
    # the first negative level-2 weight has about 8,700 digits in lowest terms
    limit = sys.get_int_max_str_digits()
    den = 3**9100
    path = tmp_path / "c.json"
    path.write_text(json.dumps(
        {"c": ["1", io.format_value(Fraction(den - 1, den)), "0"]}
    ))
    code, out, err = run_cli(["recover", "--moments", str(path), "--level", "2"], capsys)
    assert code == 4 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "extendability"
    # q_0 = c_0 - 2 c_1 + c_2
    want = Fraction(1) - 2 * Fraction(den - 1, den)
    assert io.parse_value(doc["certificate"]) == want
    assert io.format_value(want) in doc["message"]
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run_cli(["extend-check", "--moments", str(path)], capsys)
    assert code == 4 and json.loads(out)["result"] == "reject"


def test_law_entry_past_float_range_exit3(tmp_path, capsys):
    # a float entry makes the law float64; an exact entry past the float
    # range is then an invariant violation, not a traceback
    path = write_json(tmp_path, "law.json", {"q": ["1" + "0" * 400, 0.5]})
    code, out, err = run_cli(["prefix-prob", "--law", path, "--pattern", "1"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "invariant"


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
        # the eight sums: a-side lower, mid, upper numerators first
        a, a_den, b, b_den = accumulate(*args)
        return [0] * 3, a_den, b, b_den

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
        # argparse cannot require -N only with --measure
        (["verify", "--measure", "{fair}", "--pattern", "1"], None, 2, "input"),
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


@pytest.mark.parametrize(
    "argv",
    [
        # the atom at 1 takes the per-index pass
        ["verify", "--measure", "{endpoint}", "-N", "100000000000000000000", "--pattern", "1,0"],
        ["ratio-scan", "-N", "100000000000000000000", "--stride", "1000000000000000000",
         "--pattern", "1,0"],
    ],
)
def test_index_arrays_past_int64_are_a_domain_error(argv, tmp_path, capsys):
    # both once ended in an OverflowError traceback
    endpoint = write_json(tmp_path, "endpoint.json",
                          {"atoms": [{"p": 1.0, "w": 0.5}, {"p": 0.5, "w": 0.5}]})
    code, out, err = run_cli([arg.format(endpoint=endpoint) for arg in argv], capsys)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "domain"


@pytest.mark.parametrize("command", [["verify", "--backend", "exact", "--pattern", "1,0"],
                                     ["yn-law"]])
def test_exact_count_law_past_int64_is_a_domain_error(command, fair_file, capsys):
    # the exact law needs p.denominator ** N and N + 1 numerators: both once
    # ran on without bound
    code, out, err = run_cli([*command, "--measure", fair_file, "-N", str(10**20)], capsys)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "domain" and "exceeds 2^63 - 1" in doc["message"]


def test_exact_verify_of_a_measure_past_its_count_law_size(three_atom_file, capsys):
    # N = 6e4 once needed a count law of about 1.39 GB and exited 2; the
    # exact totals and two tail passes need numbers of about 2e5 bits
    N, pattern = 60_000, "1,1,0,1"
    code, out, err = run_cli(["verify", "--measure", three_atom_file, "-N", str(N),
                              "--pattern", pattern, "--backend", "exact"], capsys)
    assert (code, err) == (0, "")
    rep = {name: io.parse_value(json.loads(out)[name])
           for name in ("lhs", "rhs", "abs_diff", "sandwich_bound")}
    mu, e = io.load_measure(three_atom_file), model.PrefixEvent.from_string(pattern)
    assert rep["lhs"] == model.mixture_prefix_prob(mu, e)
    assert rep["rhs"] == kernel_mean(model.level_moments(mu, e.k), N, e.k, e.alpha)[1]
    assert rep["abs_diff"] == abs(rep["lhs"] - rep["rhs"]) <= rep["sandwich_bound"]


def test_exact_verify_past_its_size_limit_is_a_domain_error(three_atom_file, monkeypatch, capsys):
    # N = 4e5 over the denominator 10 takes about 1.3e6 bits, past
    # EXACT_MEASURE_MAX_BITS: refused before any term is built
    def refuse(*args):
        raise AssertionError("count-law terms built past the size limit")

    monkeypatch.setattr(harness, "_law_terms", refuse)
    code, out, err = run_cli(["verify", "--measure", three_atom_file, "-N", "400000",
                              "--pattern", "1,1,0,1", "--backend", "exact"], capsys)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    doc = json.loads(line)
    assert doc["error"] == "domain" and "bits" in doc["message"]


def test_interior_measure_past_int64_verifies(tmp_path, capsys):
    # no atom takes the per-index pass, so no index array bounds N
    path = write_json(tmp_path, "mu.json", {"atoms": [{"p": 0.3, "w": 0.5}, {"p": 0.5, "w": 0.5}]})
    code, out, _ = run_cli(["verify", "--measure", path, "-N", "100000000000000000000",
                            "--pattern", "1,0,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["backend"] == "log" and doc["abs_diff"] <= doc["sandwich_bound"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["yn-law", "--measure", "{mu}", "-N", "3", "--backend", "log"],
        ["oracle", "-N", "3", "--measure", "{mu}", "--law", "{missing}"],
        ["recover", "--moments", "{mu}", "--level", "2", "--law", "{mu}"],
    ],
)
def test_options_a_command_does_not_read_exit_2(argv, fair_file, tmp_path, capsys):
    # each subcommand declares only the options it reads; these were once
    # accepted and then ignored
    argv = [arg.format(mu=fair_file, missing=tmp_path / "missing.json") for arg in argv]
    assert "unrecognized arguments" in usage_error(argv, capsys)


# A valid command line per subcommand, the options it requires, and the
# sources of which it takes exactly one.
RULE_COMMANDS = {
    "prefix-prob": (["--measure", "{mu}", "--pattern", "1"], ["--pattern"],
                    ["--measure", "--moments", "--law"]),
    "yn-law": (["--measure", "{mu}", "-N", "3"], ["--measure", "-N"], []),
    "verify": (["--measure", "{mu}", "-N", "3", "--pattern", "1"], ["--pattern"],
               ["--measure", "--law"]),
    "ratio-scan": (["-N", "100", "--pattern", "1", "--stride", "2"], ["-N", "--pattern"], []),
    "recover": (["--moments", "{c}", "--level", "2"], ["--moments", "--level"], []),
    "extend-check": (["--moments", "{c}"], ["--moments"], []),
    "oracle": (["-N", "3", "--seed", "1"], [], []),
    "tail-check": (["-N", "100", "--pattern", "1"], ["-N", "--pattern"], []),
}


def _without(args, flag):
    j = args.index(flag)
    return args[:j] + args[j + 2:]


def _with(args, flag, value):
    return _without(args, flag) + [flag, value]


def _rule_cases():
    for command, (args, required, sources) in RULE_COMMANDS.items():
        for flag in required:
            yield command, f"without{flag}", _without(args, flag)
        if sources:
            bare = _without(args, sources[0])
            yield command, "without-source", bare
            for j, first in enumerate(sources):
                for second in sources[j + 1:]:
                    yield command, f"{first}+{second}", (
                        bare + [first, "{mu}", second, "{mu}"])
        for flag in ("-N", "--stride", "--level"):
            if flag in args:
                for value in ("0", "-1"):
                    yield command, f"{flag}={value}", _with(args, flag, value)
        if "--pattern" in args:
            for value in ("1,x", "1,2", ""):
                yield command, f"--pattern={value}", _with(args, "--pattern", value)


def _rule_argv(command, args, fair_file, polya_file):
    return [command] + [arg.format(mu=fair_file, c=polya_file) for arg in args]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_line_rule_bases_parse(command, fair_file, polya_file):
    argv = _rule_argv(command, RULE_COMMANDS[command][0], fair_file, polya_file)
    assert cli.parse_args(argv)[0] == command


@pytest.mark.parametrize(
    "command, fault, args", [pytest.param(*case, id=f"{case[0]}:{case[1]}")
                             for case in _rule_cases()]
)
def test_command_line_faults_are_usage_errors(command, fault, args, fair_file,
                                              polya_file, capsys):
    # a fault in the command line itself exits 2 with argparse's usage text;
    # the files are never opened
    usage_error(_rule_argv(command, args, fair_file, polya_file), capsys)


def test_a_process_builds_its_parsers_once(fair_file, monkeypatch, capsys):
    # a plainly spelled line builds no parser; the first line that argparse
    # reads builds them all, and later ones build none
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parsers.cache_clear()
    assert main(["prefix-prob", "--measure", fair_file, "--pattern", "1"]) == 0
    assert main(["oracle", "-N", "3"]) == 0
    assert built == []
    capsys.readouterr()
    usage_error(["oracle", "-N", "0"], capsys)
    assert len(built) == 1 + len(cli.COMMANDS)
    built.clear()
    usage_error(["tail-check", "-N", "100"], capsys)
    assert main(["prefix-prob", f"--measure={fair_file}", "--pat", "1"]) == 0
    assert built == []


# a valid value of each option (the file options take any path), and tokens
# for lines that argparse may read otherwise than the option table: every
# flag, abbreviations, --flag=value and -N5 spellings, help, values that
# start with "-", and bad ints, patterns and choices
_GOOD_VALUES = {"--backend": ["auto", "log", "exact"], "-N": ["3", "100"],
                "--pattern": ["1", "1,1,0"], "--stride": ["1", "97"], "--level": ["2"],
                "--seed": ["0", "7"]}
_FLAG_TOKENS = [*cli.OPTIONS, "--meas", "--pat", "--st", "--lev", "--se", "--o", "--m",
                "--back", "-h", "--help", "--", "--N", "-n", "--nope"]
_VALUE_TOKENS = ["1", "3", "100", "1,0", "0", "-1", "1,x", "1,2", "", "x", "mu.json",
                 "auto", "log", "fast", "1.5", " 2", "-x", "--", "1e3", "\u0663"]


@st.composite
def _argvs(draw):
    """A valid line of a subcommand, flags in any order, with up to three
    edits: a token dropped, replaced or glued, or a pair inserted."""
    command = draw(st.sampled_from([*cli.COMMANDS, "nope", "-h"]))
    _, _, required, optional = cli.COMMANDS.get(command, (None, None, (), ()))
    flags = [draw(st.sampled_from(e)) if isinstance(e, tuple) else e for e in required]
    flags += [flag for flag in optional if draw(st.booleans())]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(st.sampled_from(_GOOD_VALUES.get(flag, ["mu.json", "o.csv"])))]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(1, len(argv)))
        flag, value = draw(st.sampled_from(_FLAG_TOKENS)), draw(st.sampled_from(_VALUE_TOKENS))
        argv[j:j + draw(st.integers(0, 1))] = draw(st.sampled_from(
            [[], [flag, value], [flag], [value], [f"{flag}={value}"], [f"{flag}{value}"]]))
    return argv


@settings(max_examples=2000)
@given(_argvs())
def test_plain_parse_reads_a_line_as_argparse_does(argv):
    # a line argparse refuses is never read plainly, and one read plainly
    # gives argparse's options
    plain = cli._plain_parse(argv)
    if argv[0] not in cli.COMMANDS:
        assert plain is None
        return
    try:
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
            args = cli._parsers()[1][argv[0]].parse_args(argv[1:])
    except SystemExit:
        assert plain is None, argv
        return
    assert plain is None or vars(plain) == vars(args), argv


def _bench_argvs(workdir, monkeypatch):
    """The command line of every op slot of every benchmark workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return [op.argv for wl in workloads.WORKLOADS.values() for slot in range(wl.slots)
            for op in wl.make(random.Random(slot), slot, str(workdir))]


def test_plain_lines_skip_argparse(fair_file, polya_file, tmp_path, monkeypatch):
    # the rule lines, the README lines and the benchmark's command lines are
    # all plainly spelled; a _plain_parse that gave up on them would pass
    # every other test and leave each command to argparse
    lines = [_rule_argv(command, args, fair_file, polya_file)
             for command, (args, _, _) in RULE_COMMANDS.items()]
    lines += _readme_cli_lines() + _bench_argvs(tmp_path, monkeypatch)
    assert {argv[0] for argv in lines} == set(cli.COMMANDS)
    for argv in lines:
        plain = cli._plain_parse(argv)
        assert plain is not None, argv
        assert vars(plain) == vars(cli._parsers()[1][argv[0]].parse_args(argv[1:]))


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("definetti ")]


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    assert sorted(argv[0] for argv in lines) == sorted(cli.COMMANDS)
    for argv in lines:
        command, args = cli.parse_args(argv)
        assert command == argv[0]
        # the full parser, used when argv names no subcommand, reads them alike
        assert vars(cli._parsers()[0].parse_args(argv)) == {**vars(args), "command": command}


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})   # its assert must hold
    assert len(capsys.readouterr().out.splitlines()) == block.count("print(")


@pytest.mark.parametrize(
    "c, code, value",
    [
        (["2/2", "2/4", "1/4"], 0, "1/4"),        # unreduced entries are fine
        ([1, "1/2", "0001/4"], 0, "1/4"),
        (["1", 0.5, "1/4"], 0, 0.25),              # a float entry: float vector
        (["1", "1/0"], 2, None),
        (["1", "1/-2", "0"], 2, None),
        (["1", "x", "0"], 2, None),
        (["1", True, "0"], 2, None),
        (["1/2", "1/4", "0"], 3, None),
        (["1", "1/4", "1/2"], 3, None),
    ],
)
def test_moment_file_entries(c, code, value, tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {"c": c})
    got, out, _ = run_cli(["prefix-prob", "--moments", path, "--pattern", "1,0"], capsys)
    assert got == code
    if value is not None:
        assert json.loads(out)["value"] == value


def test_moment_file_with_a_float_is_float64(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", {"c": ["1", "3/4", "2/5", 0.1]})
    c = io.load_moments(path)
    assert c.integer_form() is None
    assert c.c == (1.0, 0.75, 0.4, 0.1)
    assert all(type(v) is float for v in c.c)
    # the float path's certificate, no longer the exact "-1/10" that the
    # rational entries alone would give
    code, out, err = run_cli(["extend-check", "--moments", path], capsys)
    assert (code, err) == (4, "")
    assert out == json.dumps({
        "result": "reject",
        "certificate": (1.0 - 0.75) - (0.75 - 0.4),
        "difference_order": 2,
        "index": 0,
    }) + "\n"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "argv, doc",
    [
        (["prefix-prob", "--measure", "{f}", "--pattern", "1"],
         '{"atoms": [{"p": "1/2", "w": %s}]}'),
        (["verify", "--measure", "{f}", "-N", "50", "--pattern", "1,0"],
         '{"atoms": [{"p": %s, "w": 1}]}'),
        (["yn-law", "--measure", "{f}", "-N", "4"], '{"atoms": [{"p": %s, "w": 1}]}'),
        (["extend-check", "--moments", "{f}"], '{"c": [1, %s, %s]}'),
        (["recover", "--moments", "{f}", "--level", "2"], '{"c": [1, 0.5, %s]}'),
        (["prefix-prob", "--moments", "{f}", "--pattern", "1"], '{"c": [1, %s]}'),
        (["verify", "--law", "{f}", "--pattern", "1"], '{"q": [0.5, %s]}'),
        (["prefix-prob", "--law", "{f}", "--pattern", "1"], '{"q": ["1/2", %s]}'),
    ],
)
def test_non_finite_input_exit2(argv, doc, token, tmp_path, capsys):
    # json reads NaN, Infinity and overflowing literals as non-finite floats
    path = tmp_path / "in.json"
    path.write_text(doc.replace("%s", token))
    code, out, err = run_cli([arg.format(f=path) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "input"
    assert "finite" in json.loads(err)["message"]


@pytest.mark.parametrize("container", ["5", "null", '"ab"', "{}"])
@pytest.mark.parametrize(
    "argv, key, want",
    [
        (["prefix-prob", "--measure", "{f}", "--pattern", "1"], "atoms", "an 'atoms' list"),
        (["prefix-prob", "--moments", "{f}", "--pattern", "1"], "c", "a 'c' list"),
        (["prefix-prob", "--law", "{f}", "--pattern", "1"], "q", "a 'q' list"),
    ],
)
def test_non_list_entries_exit2(argv, key, want, container, tmp_path, capsys):
    # every input file is an object whose key holds a list; any other
    # container is an input error, not a traceback or an invariant
    path = tmp_path / "in.json"
    path.write_text('{"%s": %s}' % (key, container))
    code, out, err = run_cli([arg.format(f=path) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "input",
        "message": f"{path}: expected an object with {want}",
    }


def test_unopenable_out_path_exit2(fair_file, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.json"
    code, stdout, err = run_cli(
        ["prefix-prob", "--measure", fair_file, "--pattern", "1", "--out", str(out)], capsys
    )
    assert (code, stdout) == (2, "")
    doc = json.loads(err)
    assert doc["error"] == "input"
    assert doc["message"].startswith(f"cannot write {out}")
    assert not out.exists()


_SCAN_INTO_CLOSED_PIPE = """
import multiprocessing, sys
from definetti import cli
if sys.argv[2] == "workers":
    cli.SCAN_BLOCK_ROWS, cli.SCAN_POOL_MIN_ROWS = 997, 0
code = cli.main(["ratio-scan", "-N", "100000", "--pattern", "1,0"])
with open(sys.argv[1], "w") as fh:
    fh.write(f"{code} {len(multiprocessing.active_children())}")
"""


@pytest.mark.parametrize("workers", ["in-process", "workers"])
def test_closed_stdout_pipe_ends_quietly(workers, tmp_path):
    # the reader takes the header line and closes the pipe, like `| head -1`;
    # the 6 MB CSV cannot all fit in the pipe before that
    result = tmp_path / "result"
    with subprocess.Popen(
        [sys.executable, "-c", _SCAN_INTO_CLOSED_PIPE, str(result), workers],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"i,log_a,log_b,ratio,region\n"
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        err = proc.stderr.read()
    assert (code, err) == (0, b"")
    assert result.read_text() == "0 0"


@pytest.mark.skipif(shutil.which("bash") is None or shutil.which("head") is None,
                    reason="needs bash and head")
def test_closed_stdout_pipe_through_the_module_entry_point():
    cmd = f"{sys.executable} -m definetti ratio-scan -N 100000 --pattern 1,0 | head -1"
    proc = subprocess.run(["bash", "-o", "pipefail", "-c", cmd], capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == b"i,log_a,log_b,ratio,region\n"
    assert proc.stderr == b""
