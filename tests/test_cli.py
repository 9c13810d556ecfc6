import contextlib
import hashlib
import io
import json
import re
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from spectr import cli, exact, token_coupling as tc
from spectr.cli import main
from spectr.prob_core import ProbVector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_cells(out):
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_coupling_identical_distributions(capsys):
    code, out, _ = run_cli(capsys, "coupling", "--p", "0.25,0.75", "--q", "0.25,0.75",
                           "--k", "4", "--method", "otm")
    assert code == 0
    rows = csv_cells(out)
    assert rows[0]["method"] == "otm_lp"
    assert float(rows[0]["alpha"]) == pytest.approx(1.0, abs=1e-9)


def test_coupling_bernoulli_example(capsys):
    code, out, _ = run_cli(capsys, "coupling", "--p", "0.75,0.25", "--q", "0.25,0.75",
                           "--k", "2", "--method", "otm")
    assert code == 0
    assert float(csv_cells(out)[0]["alpha"]) == pytest.approx(0.6875, abs=1e-9)


def test_coupling_all_methods_ordering(capsys):
    code, out, _ = run_cli(capsys, "coupling", "--p", "0.6,0.3,0.1", "--q", "0.1,0.4,0.5",
                           "--k", "3", "--method", "all")
    assert code == 0
    rows = {r["method"]: float(r["alpha"]) for r in csv_cells(out)}
    assert set(rows) == {"maximal", "kseq", "otm_lp", "upper_bound"}
    assert rows["kseq"] <= rows["otm_lp"] + 1e-7
    assert rows["otm_lp"] <= rows["upper_bound"] + 1e-7


def test_coupling_plan_export(capsys, tmp_path):
    plan_path = tmp_path / "plan.csv"
    code, out, _ = run_cli(capsys, "coupling", "--p", "0.75,0.25", "--q", "0.25,0.75",
                           "--k", "2", "--method", "otm", "--plan-out", str(plan_path))
    assert code == 0
    lines = plan_path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "draft_tuple,output_token,mass"
    masses = [float(l.split(",")[2]) for l in lines[2:]]
    assert sum(masses) == pytest.approx(1.0, abs=1e-9)


# sha256 prefixes of every line after `# config:` in `coupling --method otm
# --plan-out`, taken when the plan still stored one row per draft tuple
PLAN_CSV_PINS = [
    ("0.5,0.3,0.2", "0.2,0.3,0.5", "3", "ed7228708c9960fc"),
    ("0.4,0.3,0.2,0.1,0", "0.1,0.1,0.2,0.3,0.3", "2", "0b73ddfe0cc68dbb"),
    ("0.75,0.25", "0.25,0.75", "2", "42c4ee043d2fa608"),
]


@pytest.mark.parametrize("p,q,k,digest", PLAN_CSV_PINS)
def test_coupling_plan_csv_is_pinned(capsys, tmp_path, p, q, k, digest):
    plan_path = tmp_path / "plan.csv"
    code, _, _ = run_cli(capsys, "coupling", "--p", p, "--q", q, "--k", k, "--method", "otm",
                         "--plan-out", str(plan_path))
    assert code == 0
    config, body = plan_path.read_text().split("\n", 1)
    assert config.startswith("# config: coupling ")
    assert hashlib.sha256(body.encode()).hexdigest()[:16] == digest


def test_coupling_reads_distribution_from_file(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0.5,0.5\n")
    code, out, _ = run_cli(capsys, "coupling", "--p", str(path), "--q", "0.5,0.5",
                           "--k", "1", "--method", "maximal")
    assert code == 0
    assert float(csv_cells(out)[0]["alpha"]) == pytest.approx(1.0)


def test_sweep_bernoulli_matched_is_one(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "bernoulli",
                           "--p-head", "0.25", "--b-list", "0.25", "--k-max", "4")
    assert code == 0
    rows = csv_cells(out)
    assert all(float(r["alpha"]) == pytest.approx(1.0, abs=1e-9) for r in rows)


def test_sweep_uniform_closed_form_column(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "uniform", "--d", "120",
                           "--r-list", "2", "--k-max", "6")
    assert code == 0
    for row in csv_cells(out):
        if row["method"] == "closed_form":
            k = int(row["k"])
            assert float(row["alpha"]) == pytest.approx(1 - 0.5**k, abs=1e-9)


def test_sweep_kseq_strictly_below_otm_somewhere(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "bernoulli", "--p-head", "0.25",
                           "--b-list", "0.1,0.75", "--k-max", "6", "--with-lp")
    assert code == 0
    rows = csv_cells(out)
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r["param"], r["k"]), {})[r["method"]] = r["alpha"]
    gaps = []
    for cell in by_cell.values():
        assert float(cell["kseq"]) <= float(cell["otm_lp"]) + 1e-7
        gaps.append(float(cell["otm_lp"]) - float(cell["kseq"]))
    assert max(gaps) > 1e-3


def test_sweep_lp_rows_skipped_above_cap(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "uniform", "--d", "66",
                           "--r-list", "2", "--k-max", "3", "--with-lp")
    assert code == 0
    lp = {int(r["k"]): r["alpha"] for r in csv_cells(out) if r["method"] == "otm_lp"}
    # 66^2 > 4096 tuples, yet the closed-form optimum answers every row:
    # 1 - (1 - 1/r)^k for uniform pairs
    for k in (1, 2, 3):
        assert float(lp[k]) == pytest.approx(1 - (1 - 1 / 2) ** k, abs=1e-12)


def test_verify_token_scope_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "token", "--cases", "30")
    assert code == 0
    assert out.strip().endswith("PASS: all cases within tolerance")


def test_verify_token_scope_invalid_gamma_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "token", "--cases", "8",
                           "--gamma", "1.0")
    assert code == 1
    assert "invalid-gamma" in out


def test_verify_sequence_scope_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "sequence")
    assert code == 0
    assert "PASS" in out


def test_verify_sequence_tree_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "sequence",
                           "--factors", "2,2", "--methods", "kseq")
    assert code == 0
    row, = csv_cells(out)
    assert (row["L"], row["K"], row["construction"]) == ("2", "4", "tree")


def test_verify_factors_replace_num_drafts_and_draft_len(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "sequence", "--num-drafts", "0",
                           "--draft-len", "0", "--factors", "2,1", "--methods", "kseq")
    assert code == 0
    row, = csv_cells(out)
    assert (row["L"], row["K"], row["construction"]) == ("2", "2", "tree")


def test_verify_sequence_scope_past_the_forest_walk(capsys):
    # (4^3)^4 ≈ 16.7M draft forests; at most 4^4 live tuples at any state
    code, out, _ = run_cli(capsys, "verify", "--scope", "sequence", "--vocab", "4",
                           "--num-drafts", "4", "--draft-len", "3")
    assert code == 0
    assert [r["status"] for r in csv_cells(out)] == ["PASS", "PASS"]


def test_verify_sequence_scope_rejects_a_state_above_the_cap(capsys):
    # 16^4 live tuples at the root exceed the plan's tuple cap: refused before any is built
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", "--scope", "sequence", "--vocab", "16",
                                 "--num-drafts", "4", "--draft-len", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "16^4" in err and "cap 4096" in err
    assert peak < 5e6


@pytest.mark.parametrize("argv", [
    ("decode", "--num-drafts", "10000000", "--prompts", "1", "--tokens", "1"),
    ("decode", "--num-drafts", "1", "--draft-len", "2000", "--prompts", "1", "--tokens", "1"),
])
def test_decode_refuses_a_draft_set_above_its_caps(capsys, argv):
    # 4e7 nodes, or a depth of 2000 that would overflow the recursive build
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == "" and err.startswith("error: ") and "cap" in err
    assert elapsed < 2.0 and peak < 5e6


@pytest.mark.parametrize("method,cap", [
    # 2000 depths pass the decoder's depth cap, checked before the branching list is
    # built; the count walk's bound would pass its cap at depth 13
    ("otm", "depth cap"),
    ("kseq", "depth cap"),
])
def test_verify_sequence_scope_refuses_a_walk_above_the_cap(capsys, method, cap):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--scope", "sequence", "--num-drafts", "1",
                             "--draft-len", "2000", "--methods", method)
    assert time.perf_counter() - start < 15.0
    assert code == 3
    assert out == "" and err.startswith("error: ") and cap in err


@pytest.mark.parametrize("vocab,factors,tuples", [
    ("16", "2,2,2", "16^8 tuples of 8 tokens"),
    ("3", "2,2,2", "3^8 tuples of 8 tokens"),
    ("5", "2,3", "5^6 tuples of 6 tokens"),
])
def test_verify_refuses_every_method_before_walking_any(capsys, monkeypatch, vocab, factors,
                                                        tuples):
    # K-SEQ's walk fits, OTM's would build a plan of more tuples than the plan's cap
    # once every draft survives: the refusal comes before K-SEQ is walked, with the
    # plan's message
    def walked(*args):
        raise AssertionError("a method was walked")
    monkeypatch.setattr(exact, "method_output_distribution", walked)
    code, out, err = run_cli(capsys, "verify", "--scope", "sequence", "--vocab", vocab,
                             "--factors", factors)
    assert code == 3
    assert out == "" and err == f"error: |supp p|^k = {tuples} exceed the tuple cap 4096\n"


@pytest.mark.parametrize("argv", [
    ("--vocab", "8", "--num-drafts", "8", "--draft-len", "4"),
    ("--vocab", "16", "--factors", "2,2,2"),
])
def test_verify_sequence_scope_reaches_decode_sizes_by_the_count_step(capsys, argv):
    # decode_hot's draft shape at V = 8 and decode_cold's at V = 16: an OTM plan
    # would list 8^8 and 16^8 draft tuples at one state
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--scope", "sequence", "--methods", "kseq", *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert [r["status"] for r in csv_cells(out)] == ["PASS"]


def test_verify_sequence_scope_refuses_a_count_walk_above_the_cap_before_any_row(
        capsys, monkeypatch):
    # V = 16 with 8 drafts four deep could store about 5.2 M entries
    monkeypatch.setattr(ProbVector, "__init__", _no_vector)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--scope", "sequence", "--methods", "kseq",
                             "--vocab", "16", "--num-drafts", "8", "--draft-len", "4")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == "" and err.startswith("error: ") and "count entry cap" in err


@pytest.mark.parametrize("argv,seconds", [
    # |supp|^k = 3^30000000 and 3^10000000 are refused without being computed
    (("coupling", "--p", "0.5,0.3,0.2", "--q", "0.2,0.3,0.5", "--k", "30000000",
      "--method", "upper"), 1.0),
    (("verify", "--scope", "sequence", "--num-drafts", "10000000", "--draft-len", "1"), 1.0),
    # the depth alone exceeds the decoder's depth cap
    (("verify", "--scope", "sequence", "--num-drafts", "1", "--draft-len", "20000000"), 2.0),
])
def test_oversized_tuple_spaces_are_refused_at_once(capsys, argv, seconds):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == "" and err.startswith("error: ") and "cap" in err
    assert elapsed < seconds and peak < 5e6


@pytest.mark.parametrize("method", ["upper", "otm"])
def test_a_point_mass_with_a_huge_k_is_refused_at_once(capsys, tmp_path, method):
    # a one-token support has one tuple, yet 10^7 tokens long: the cap bounds its length
    plan = tmp_path / "plan.csv"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "coupling", "--p", "0,1", "--q", "0.5,0.5",
                                 "--k", "10000000", "--method", method,
                                 "--plan-out", str(plan))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == "" and err.startswith("error: ") and "tuple cap" in err
    assert elapsed < 1.0 and peak < 5e6
    assert not plan.exists()


@pytest.mark.parametrize("argv,cap", [
    # one draft two deep: V^3 = 16.7M output sequences at V = 256
    (("--methods", "otm", "--num-drafts", "1", "--draft-len", "2", "--vocab", "256"),
     "count entry cap"),
    (("--methods", "kseq", "--num-drafts", "1", "--draft-len", "2", "--vocab", "256"),
     "count entry cap"),
    # factors (2, 2): an OTM plan of 64^4 tuples once all 4 leaves survive
    (("--vocab", "64", "--factors", "2,2"), "tuple cap"),
])
def test_verify_sequence_scope_refuses_a_walk_above_the_entry_cap(capsys, argv, cap):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--scope", "sequence", *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 3
    assert out == "" and err.startswith("error: ") and cap in err


@pytest.mark.parametrize("argv,unread", [
    (("decode", "--factors", "2,2,2", "--prompts", "2", "--tokens", "8"),
     {"num_drafts", "draft_len"}),
    (("verify", "--scope", "sequence", "--factors", "2,2", "--vocab", "3"),
     {"num_drafts", "draft_len"}),
    (("decode", "--method", "baseline", "--num-drafts", "-3", "--prompts", "2",
      "--tokens", "8"),
     {"num_drafts", "draft_len", "factors"}),
    (("verify", "--scope", "token", "--cases", "1"),
     {"vocab", "draft_len", "num_drafts", "eps", "methods", "factors"}),
    (("verify", "--scope", "sequence", "--vocab", "3"),
     {"cases", "k_max", "gamma"}),
    # gamma is read only by a kseq row, and k by no maximal one
    (("coupling", "--p", "1e-17,1", "--q", "0,1", "--k", "5", "--method", "otm",
      "--gamma", "nan"), {"gamma"}),
    (("coupling", "--p", "0.5,0.5", "--q", "0.3,0.7", "--k", "2", "--method", "upper",
      "--gamma", "2"), {"gamma"}),
    (("coupling", "--p", "0.5,0.5", "--q", "0.3,0.7", "--k", "2", "--method", "maximal",
      "--gamma", "2"), {"gamma", "k"}),
])
def test_config_echo_names_only_what_the_run_read(capsys, argv, unread):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    echo = out.splitlines()[0].split()
    assert echo[:3] == ["#", "config:", argv[0]]
    echoed = {pair.split("=")[0] for pair in echo[3:]}
    assert ("p" if argv[0] == "coupling" else "seed") in echoed and not echoed & unread
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert set(json.loads(out)["config"]) == echoed | {"subcommand"}


@pytest.mark.parametrize("method", ["kseq", "all"])
def test_config_echo_names_gamma_where_a_kseq_row_reads_it(capsys, method):
    code, out, _ = run_cli(capsys, "coupling", "--p", "0.5,0.5", "--q", "0.3,0.7", "--k", "2",
                           "--method", method, "--gamma", "2")
    assert code == 0
    assert {"gamma=2.0", "k=2"} <= set(out.splitlines()[0].split())


def test_decode_baseline_block_efficiency(capsys):
    code, out, _ = run_cli(capsys, "decode", "--method", "baseline", "--vocab", "8",
                           "--prompts", "3", "--tokens", "16")
    assert code == 0
    row = csv_cells(out)[0]
    assert row["algorithm"] == "baseline"
    assert float(row["mean_block_efficiency"]) == 1.0


def test_decode_identical_models_ceiling(capsys):
    code, out, _ = run_cli(capsys, "decode", "--method", "kseq", "--vocab", "8",
                           "--eps", "0", "--num-drafts", "2", "--draft-len", "4",
                           "--prompts", "3", "--tokens", "20")
    assert code == 0
    assert float(csv_cells(out)[0]["mean_block_efficiency"]) == 5.0


def test_decode_k_sweep_trend_and_goldens(capsys):
    # seeded eps=0.3 sweep over K, monotone mean BE; re-pinned when each draft
    # set moved to one leaf-major draw
    golden = {1: "3.97755456349", 2: "4.2615327381",
              4: "4.34052579365", 8: "4.48921130952"}
    means = {}
    for K in golden:
        code, out, _ = run_cli(capsys, "decode", "--method", "kseq", "--vocab", "16",
                               "--eps", "0.3", "--num-drafts", str(K),
                               "--draft-len", "4", "--prompts", "16",
                               "--tokens", "32", "--seed", "3")
        assert code == 0
        row = csv_cells(out)[0]
        assert row["mean_block_efficiency"] == golden[K]
        means[K] = float(row["mean_block_efficiency"])
    ordered = [means[K] for K in sorted(means)]
    assert ordered == sorted(ordered)


# sha256 of trace_0000.json from `decode --method <method> --vocab 8 --prompts 2 --tokens 10`
TRACE_PINS = {
    "kseq": "ac08c9c423de88b46a589fff5ec677467cf8b5ae8b299863b99539910e9f4767",
    "baseline": "9de7700b52828e76a3a862188370818c3025136f92598a239c18373d70a3412b",
}


def _trace_files(capsys, trace_dir, method):
    code, _, _ = run_cli(capsys, "decode", "--method", method, "--vocab", "8",
                           "--prompts", "2", "--tokens", "10",
                           "--trace-dir", str(trace_dir))
    assert code == 0
    files = sorted(trace_dir.glob("trace_*.json"))
    assert len(files) == 2
    assert hashlib.sha256(files[0].read_bytes()).hexdigest() == TRACE_PINS[method]
    return files


def test_decode_writes_trace_files(capsys, tmp_path):
    files = _trace_files(capsys, tmp_path / "runs", "kseq")
    parsed = json.loads(files[0].read_text())
    assert parsed["serial_big_calls"] >= 1
    assert len(parsed["tokens"]) >= 10


def test_baseline_trace_file_is_pinned(capsys, tmp_path):
    parsed = json.loads(_trace_files(capsys, tmp_path / "runs", "baseline")[0].read_text())
    assert parsed["per_iteration"] == []
    assert parsed["serial_big_calls"] == len(parsed["tokens"]) == 10


@pytest.mark.parametrize("method,decoder", [("kseq", "spectr_decode"),
                                            ("baseline", "baseline_decode")],
                         ids=["kseq", "baseline"])
def test_decode_holds_one_prompt_trace_at_a_time(capsys, monkeypatch, method, decoder):
    decode = getattr(cli, decoder)
    traces, alive = [], []

    def watched(*args, **kwargs):
        # earlier prompts' traces are folded into the summary and freed by now
        alive.append(sum(ref() is not None for ref in traces))
        trace = decode(*args, **kwargs)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(cli, decoder, watched)
    code, _, _ = run_cli(capsys, "decode", "--method", method, "--vocab", "8",
                         "--prompts", "3", "--tokens", "10")
    assert code == 0
    assert alive == [0, 0, 0]


@pytest.mark.parametrize("argv", [
    ("coupling", "--p", "0.5,0.5", "--q", "0.3,0.7", "--k", "2", "--method", "all"),
    ("sweep", "--family", "bernoulli", "--b-list", "0.1,0.9", "--k-max", "5"),
    ("verify", "--scope", "token", "--cases", "10"),
    ("decode", "--method", "kseq", "--vocab", "8", "--prompts", "2", "--tokens", "12"),
])
def test_byte_identical_reruns(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_exit_code_cap_exceeded(capsys, tmp_path):
    big = tmp_path / "u70.txt"
    big.write_text(ProbVector.uniform(70).format())
    # 70^2 tuples exceed the cap: only writing the plan has to list them
    code, out, err = run_cli(capsys, "coupling", "--p", str(big), "--q", str(big),
                             "--k", "2", "--method", "otm",
                             "--plan-out", str(tmp_path / "plan.csv"))
    assert code == 3
    assert "cap" in err
    code, out, _ = run_cli(capsys, "coupling", "--p", str(big), "--q", str(big),
                           "--k", "2", "--method", "otm")
    assert code == 0
    assert float(csv_cells(out)[0]["alpha"]) == pytest.approx(1.0, abs=1e-12)


class _NoStream:
    """Stand-in for RngStream that fails when built: a refused run draws nothing."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("built a stream")


def test_decode_refuses_a_prompt_above_the_cap_before_any_draw(capsys, monkeypatch):
    monkeypatch.setattr(cli, "RngStream", _NoStream)
    for length in (cli.PROMPT_LEN_CAP + 1, 10**9):
        code, out, err = run_cli(capsys, "decode", "--prompt-len", str(length))
        assert code == 3
        assert out == ""
        assert f"prompt length cap {cli.PROMPT_LEN_CAP}" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "decode", "--prompt-len", str(cli.PROMPT_LEN_CAP),
                           "--prompts", "1", "--tokens", "1")
    assert code == 0
    assert len(csv_cells(out)) == 1


def test_sweep_refuses_a_report_above_the_row_cap_before_any_row(capsys, monkeypatch):
    def no_row(*args):
        raise AssertionError("computed a row")

    for name in ("alpha_bernoulli_closed_form", "alpha_uniform_closed_form",
                 "kseq_acceptance", "_gamma_star_or_k", "alpha_star"):
        monkeypatch.setattr(tc, name, no_row)
    cap = cli.ROW_CAP
    start = time.perf_counter()
    for argv in [("--family", "bernoulli", "--b-list", "0.5", "--k-max", str(cap // 2 + 1)),
                 ("--family", "bernoulli", "--b-list", "0.25,0.5", "--k-max", str(cap // 4 + 1)),
                 ("--family", "uniform", "--d", "4", "--r-list", "2", "--with-lp",
                  "--k-max", str(cap // 3 + 1)),
                 ("--family", "bernoulli", "--b-list", "0.5", "--k-max", str(10**15))]:
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 3
        assert out == ""
        assert f"row cap {cap}" in err
    assert time.perf_counter() - start < 1.0
    # a report of exactly the cap is computed, row by row
    for name in ("alpha_bernoulli_closed_form", "kseq_acceptance", "_gamma_star_or_k"):
        monkeypatch.setattr(tc, name, lambda *args: 0.5)
    code, out, _ = run_cli(capsys, "sweep", "--family", "bernoulli", "--b-list", "0.25,0.5",
                           "--k-max", str(cap // 4))
    assert code == 0
    assert len(csv_cells(out)) == cap


def test_verify_refuses_a_report_above_the_row_cap_before_any_case(capsys, monkeypatch):
    def no_case(*args, **kwargs):
        raise AssertionError("ran a case")

    for name in ("kseq_gamma_star", "kseq_output_marginal"):
        monkeypatch.setattr(tc, name, no_case)
    monkeypatch.setattr(cli, "random_prob_vector", no_case)
    cap = cli.ROW_CAP
    start = time.perf_counter()
    for argv in [("--cases", str(cap // 2 + 1)),
                 ("--cases", str(cap + 1), "--gamma", "2"),
                 ("--cases", str(10**15))]:
        code, out, err = run_cli(capsys, "verify", "--scope", "token", *argv)
        assert code == 3
        assert out == ""
        assert f"row cap {cap}" in err
    assert time.perf_counter() - start < 1.0
    # a report of exactly the cap is computed, case by case
    monkeypatch.setattr(cli, "random_prob_vector", lambda vocab, rng: ProbVector.uniform(vocab))
    monkeypatch.setattr(tc, "kseq_output_marginal", lambda p, q, k, gamma: q)
    code, out, _ = run_cli(capsys, "verify", "--scope", "token", "--cases", str(cap),
                           "--gamma", "2")
    assert code == 0
    assert len(csv_cells(out)) == cap


def test_decode_refuses_tokens_above_the_cap_before_any_prompt(capsys, monkeypatch):
    def no_prompt(*args, **kwargs):
        raise AssertionError("drew a prompt")

    monkeypatch.setattr(cli, "RngStream", no_prompt)
    cap = cli.DECODE_TOKEN_CAP
    start = time.perf_counter()
    for argv in [("--prompts", "1", "--tokens", str(cap + 1)),
                 ("--prompts", "4", "--tokens", str(cap // 4 + 1)),
                 ("--method", "baseline", "--prompts", str(cap), "--tokens", "2"),
                 ("--prompts", str(10**9), "--tokens", str(10**9))]:
        code, out, err = run_cli(capsys, "decode", *argv)
        assert code == 3
        assert out == ""
        assert f"decode token cap {cap}" in err
    assert time.perf_counter() - start < 1.0
    # exactly the cap passes the check and reaches the first prompt
    with pytest.raises(AssertionError, match="drew a prompt"):
        main(["decode", "--prompts", "4", "--tokens", str(cap // 4)])


@pytest.mark.parametrize("tokens", ["0", "-1"])
def test_decode_refuses_fewer_than_one_token_before_any_prompt(capsys, monkeypatch, tokens):
    # a product with no tokens would pass the token cap for any prompt count
    def no_prompt(*args, **kwargs):
        raise AssertionError("drew a prompt")

    monkeypatch.setattr(cli, "RngStream", no_prompt)
    code, out, err = run_cli(capsys, "decode", "--prompts", str(1 << 32), "--tokens", tokens)
    assert code == 2
    assert out == "" and "--tokens must be >= 1" in err


def _no_vector(*args, **kwargs):
    raise AssertionError("built a probability vector")


def test_decode_refuses_an_order_above_the_cap_before_any_row(capsys, monkeypatch):
    monkeypatch.setattr(ProbVector, "__init__", _no_vector)
    monkeypatch.setattr(cli, "RngStream", _NoStream)
    start = time.perf_counter()
    for order, tokens in ((cli.ORDER_CAP + 1, cli.ORDER_CAP + 1), (2000, 2000), (10**12, 64)):
        code, out, err = run_cli(capsys, "decode", "--order", str(order), "--prompts", "1",
                                 "--tokens", str(tokens))
        assert code == 3
        assert out == ""
        assert f"--order {order} exceeds the order cap {cli.ORDER_CAP}" in err
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "decode", "--order", str(cli.ORDER_CAP), "--prompts", "1",
                           "--tokens", str(cli.ORDER_CAP))
    assert code == 0
    assert len(csv_cells(out)) == 1


@pytest.mark.parametrize("argv,flag", [
    (("decode", "--prompts", "1", "--tokens", "1", "--vocab"), "--vocab"),
    (("verify", "--scope", "sequence", "--num-drafts", "1", "--draft-len", "1", "--vocab"),
     "--vocab"),
    (("sweep", "--family", "uniform", "--r-list", "1", "--k-max", "1", "--d"), "--d"),
])
def test_vocabularies_above_the_cap_are_refused_before_any_row(capsys, monkeypatch, argv, flag):
    monkeypatch.setattr(ProbVector, "__init__", _no_vector)
    for size in (cli.VOCAB_CAP + 1, 10**12):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(capsys, *argv, str(size))
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert f"{flag} {size} exceeds the vocabulary cap {cli.VOCAB_CAP}" in err
        assert elapsed < 1.0 and peak < 5e6
    monkeypatch.undo()
    if argv[0] == "verify":
        # at the default two drafts two deep, V = VOCAB_CAP passes this cap and
        # meets the count entry cap (V^3 output sequences), and with OTM first the
        # plan's tuple cap (V^2 tuples); each is refused at once
        code, out, err = run_cli(capsys, *argv[:3], "--vocab", str(cli.VOCAB_CAP))
        assert code == 3 and "count entry cap" in err
        code, out, err = run_cli(capsys, *argv[:3], "--vocab", str(cli.VOCAB_CAP),
                                 "--methods", "otm")
        assert code == 3 and "the tuple cap" in err
    else:
        code, out, _ = run_cli(capsys, *argv, str(cli.VOCAB_CAP))
        assert code == 0
        assert len(csv_cells(out)) == (1 if argv[0] == "decode" else 2)


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["coupling", "--p", "0.5,0.5", "--q", "0.5,0.5", "--method", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("decode", "--gamma-policy", "k_initial"),
    ("coupling", "--p", "0.5,0.3,0.2", "--q", "0.2,0.3,0.5", "--k", "3", "--method", "kseq",
     "--delta", "1e-9"),
    ("verify", "--scope", "sequence", "--gamma-policy", "k_initial"),
])
def test_gamma_is_not_configurable_beyond_an_explicit_override(argv):
    # K-SEQ picks gamma* at the live draft count, bisected to a fixed bracket
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_tuple_cap_is_not_configurable():
    # plans and the upper bound always enumerate at most DEFAULT_TUPLE_CAP tuples
    with pytest.raises(SystemExit) as exc:
        main(["coupling", "--p", "0.5,0.3,0.2", "--q", "0.2,0.3,0.5", "--k", "3",
              "--method", "otm", "--cap", "4096"])
    assert exc.value.code == 2


def test_coupling_gamma_override_scans_at_the_given_gamma(capsys):
    # the explicit override stays: K-SEQ is valid for any gamma >= gamma*
    code, out, _ = run_cli(capsys, "coupling", "--p", "0.5,0.3,0.2", "--q", "0.2,0.3,0.5",
                           "--k", "3", "--method", "kseq", "--gamma", "3")
    assert code == 0
    row = csv_cells(out)[0]
    assert row["detail"] == "gamma=3"
    p, q = ProbVector([0.5, 0.3, 0.2]), ProbVector([0.2, 0.3, 0.5])
    assert float(row["alpha"]) == pytest.approx(tc.kseq_acceptance(p, q, 3, 3.0), abs=1e-9)


def test_coupling_gamma_star_ends_at_a_huge_draft_count(capsys):
    # gamma* near 1e8 lies where adjacent floats are wider apart than the
    # 1e-9 bracket; the bisection still ends (well under a second)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "coupling", "--p", "0.999999999999,0.000000000001",
                           "--q", "0.000000000001,0.999999999999", "--k", "100000000",
                           "--method", "kseq")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    gamma = float(csv_cells(out)[0]["detail"].split("=")[1])
    assert 1.0 <= gamma <= 1e8


def test_exit_code_domain_error(capsys):
    code, _, err = run_cli(capsys, "coupling", "--p", "0.5,0.6", "--q", "0.5,0.5",
                           "--k", "1", "--method", "maximal")
    assert code == 2
    assert "error" in err


def test_output_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "sweep", "--family", "bernoulli",
                           "--b-list", "0.5", "--k-max", "3", "--output", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("# config: sweep")
    assert "family,param,k,method,alpha" in text


def test_coupling_disjoint_supports_report_zero(capsys):
    code, out, _ = run_cli(capsys, "coupling", "--p", "1,0", "--q", "0,1",
                           "--k", "2", "--method", "all")
    assert code == 0
    rows = {r["method"]: r for r in csv_cells(out)}
    assert set(rows) == {"maximal", "kseq", "otm_lp", "upper_bound"}
    assert all(float(r["alpha"]) == 0.0 for r in rows.values())
    assert rows["kseq"]["detail"] == "gamma=2"


def test_sweep_disjoint_supports_report_zero(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "bernoulli", "--p-head", "0",
                           "--b-list", "1", "--k-max", "3")
    assert code == 0
    kseq = [r for r in csv_cells(out) if r["method"] == "kseq"]
    assert len(kseq) == 3
    assert all(float(r["alpha"]) == 0.0 for r in kseq)


def test_decode_rejects_zero_prompts(capsys):
    code, out, err = run_cli(capsys, "decode", "--prompts", "0")
    assert code == 2
    assert out == ""
    assert "--prompts" in err


@pytest.mark.parametrize("argv", [
    ("--scope", "sequence", "--num-drafts", "0"),
    ("--scope", "sequence", "--num-drafts", "-1"),
    ("--scope", "sequence", "--draft-len", "0"),
    ("--scope", "sequence", "--factors", "0,2"),
    ("--scope", "sequence", "--factors", ","),
    ("--scope", "token", "--k-max", "0"),
])
def test_verify_rejects_sizes_it_cannot_verify(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--family", "bernoulli", "--b-list", "abc"),
    ("decode", "--factors", "2,x"),
    ("decode", "--prompt-len", "-1"),
    ("decode", "--small-cost", "nan"),
    ("decode", "--big-cost", "inf"),
    ("sweep", "--family", "uniform", "--d", "4", "--r-list", "0"),
    ("sweep", "--family", "bernoulli", "--b-list", "0.5", "--k-max", "0"),
    ("coupling", "--p", "", "--q", "0.3,0.7"),
    ("coupling", "--p", "0.5,0.5", "--q", "0.3,0.7", "--method", "otm",
     "--plan-out", "{tmp}/missing/plan.csv"),
    ("sweep", "--family", "bernoulli", "--b-list", "0.5", "--output", "{tmp}/missing/out.csv"),
    # --trace-dir makes missing directories, but not under a regular file
    ("decode", "--tokens", "4", "--prompts", "1", "--trace-dir", "{tmp}/file.txt/traces"),
    ("coupling", "--p", "0.5,0.5", "--q", "0.3,0.7", "--k", "2", "--method", "kseq",
     "--gamma", "nan"),
    ("verify", "--scope", "token", "--cases", "3", "--gamma", "nan"),
])
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv):
    (tmp_path / "file.txt").write_text("")
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    if "--gamma" in argv:
        assert err == "error: gamma nan must be >= 1\n"


def test_verify_maximal_when_tv_is_tiny(capsys):
    # at eps = 1e-12 the pair's rows differ by far less than 1e-9 in TV
    code, out, _ = run_cli(capsys, "verify", "--scope", "sequence", "--vocab", "3",
                           "--num-drafts", "1", "--draft-len", "2",
                           "--methods", "maximal,kseq", "--eps", "1e-12")
    assert code == 0
    assert [r["status"] for r in csv_cells(out)] == ["PASS", "PASS"]
    assert "PASS: all cases within tolerance" in out


def test_verify_token_scope_rejects_zero_cases(capsys):
    code, out, err = run_cli(capsys, "verify", "--scope", "token", "--cases", "0")
    assert code == 2
    assert "PASS" not in out
    assert "--cases" in err


# For the fuzz: per option, values that run in milliseconds, and edge values
# shared by every option, which must end in a documented exit too.
_EDGE = ["0", "-1", "nan", "inf", "-inf", "4294967296", "1e20", "x", "", "1,2", ",", "0.5"]
_DISTS = ["0.5,0.5", "0.25,0.75", "1,0", "0,1", "0.2,0.3,0.5", "0.2,0.8,0", "1e-17,1"]
_FACTORS = ["2,1", "1", "2,2", "1,1,1", "3"]
_SMALL = ["1", "2", "3"]
_OPTIONS = {
    "coupling": {"--p": _DISTS, "--q": _DISTS, "--k": _SMALL, "--gamma": ["1", "2", "3"],
                 "--method": ["maximal", "kseq", "otm", "upper", "all"],
                 "--format": ["csv", "json"]},
    "sweep": {"--family": ["bernoulli", "uniform"], "--p-head": ["0", "0.25", "1"],
              "--b-list": ["0.5", "0,1", "0.2,0.9"], "--d": ["2", "4", "6"],
              "--r-list": ["1", "2", "1,2"], "--k-max": _SMALL, "--with-lp": None,
              "--format": ["csv", "json"]},
    "verify": {"--scope": ["token", "sequence"], "--cases": _SMALL, "--seed": ["0", "1"],
               "--k-max": _SMALL, "--gamma": ["1", "2", "3"], "--vocab": ["2", "3"],
               "--draft-len": ["1", "2"], "--num-drafts": _SMALL,
               "--eps": ["0", "0.3", "1", "1e-12"], "--factors": _FACTORS,
               "--methods": ["kseq", "otm", "maximal", "kseq,otm", "maximal,kseq"],
               "--format": ["csv", "json"]},
    "decode": {"--vocab": ["2", "4"], "--order": ["0", "1", "2"], "--seed": ["0", "1"],
               "--eps": ["0", "0.3", "1"], "--allow-zeros": None,
               "--method": ["baseline", "maximal", "kseq", "otm"], "--factors": _FACTORS,
               "--num-drafts": _SMALL, "--draft-len": ["1", "2"], "--prompts": ["1", "2"],
               "--prompt-len": ["0", "1", "2"], "--tokens": ["1", "2", "8"],
               "--big-cost": ["0", "1", "2"], "--small-cost": ["0", "0.5"],
               "--overhead": ["0", "1"], "--format": ["csv", "json"]},
}

# Required options, and decode's sizes, whose defaults take seconds.
_REQUIRED = {"coupling": ["--p", "--q"], "sweep": ["--family"], "verify": ["--scope"],
             "decode": ["--vocab", "--prompts", "--tokens"]}


@st.composite
def cli_argvs(draw):
    """A subcommand with a random subset of its options, each set to one of its
    small values or, one time in four, to an edge value."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    required = _REQUIRED.get(command, [])
    optional = sorted(set(_OPTIONS[command]) - set(required))
    for flag in required + draw(st.lists(st.sampled_from(optional), unique=True)):
        values = _OPTIONS[command][flag]
        if values is None:
            argv.append(flag)
        else:
            edge = draw(st.integers(0, 3)) == 0
            argv += [flag, draw(st.sampled_from(_EDGE if edge else values))]
    return argv


@settings(max_examples=250, deadline=None)
@given(argv=cli_argvs())
def test_every_invocation_answers_or_exits_as_documented(argv):
    # exit 0 (answer), 1 (a verify failed), 2 (usage, argparse's SystemExit
    # included) or 3 (a cap), no other exception, and no NaN in any result
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert not re.search(r"\bnan\b", _results(out.getvalue()), re.IGNORECASE), argv


def _results(text: str) -> str:
    """The result rows of a report, CSV or JSON, without its config echo."""
    if text.startswith("{"):
        return json.dumps(json.loads(text)["rows"])
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))
