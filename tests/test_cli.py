import json
import tracemalloc

import pytest

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
    # 16^4 live tuples at the root exceed the state tuple cap: refused before any is built
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", "--scope", "sequence", "--vocab", "16",
                                 "--num-drafts", "4", "--draft-len", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "16^4" in err and "cap 16384" in err
    assert peak < 5e6


@pytest.mark.parametrize("argv,unread", [
    (("decode", "--factors", "2,2,2", "--prompts", "2", "--tokens", "8"),
     {"num_drafts", "draft_len"}),
    (("verify", "--scope", "sequence", "--factors", "2,2", "--vocab", "3"),
     {"num_drafts", "draft_len"}),
    (("decode", "--method", "baseline", "--num-drafts", "-3", "--prompts", "2",
      "--tokens", "8"),
     {"num_drafts", "draft_len", "factors", "gamma_policy"}),
])
def test_config_echo_names_only_what_the_run_read(capsys, argv, unread):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    echo = out.splitlines()[0].split()
    assert echo[:3] == ["#", "config:", argv[0]]
    echoed = {pair.split("=")[0] for pair in echo[3:]}
    assert "seed" in echoed and not echoed & unread
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert set(json.loads(out)["config"]) == echoed | {"subcommand"}


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
    # pinned at first build: seeded eps=0.3 sweep over K, monotone mean BE
    golden = {1: "3.99325396825", 2: "4.18030753968",
              4: "4.30580357143", 8: "4.3943452381"}
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


def test_decode_writes_trace_files(capsys, tmp_path):
    trace_dir = tmp_path / "runs"
    code, out, _ = run_cli(capsys, "decode", "--method", "kseq", "--vocab", "8",
                           "--prompts", "2", "--tokens", "10",
                           "--trace-dir", str(trace_dir))
    assert code == 0
    files = sorted(trace_dir.glob("trace_*.json"))
    assert len(files) == 2
    parsed = json.loads(files[0].read_text())
    assert parsed["serial_big_calls"] >= 1
    assert len(parsed["tokens"]) >= 10


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


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["coupling", "--p", "0.5,0.5", "--q", "0.5,0.5", "--method", "bogus"])
    assert exc.value.code == 2


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
    ("coupling", "--p", "0.5,0.5", "--q", "0.3,0.7", "--k", "2", "--method", "upper",
     "--cap", "0"),
    ("coupling", "--p", "0.5,0.5", "--q", "0.3,0.7", "--method", "otm",
     "--plan-out", "{tmp}/missing/plan.csv"),
    ("sweep", "--family", "bernoulli", "--b-list", "0.5", "--output", "{tmp}/missing/out.csv"),
    # --trace-dir makes missing directories, but not under a regular file
    ("decode", "--tokens", "4", "--prompts", "1", "--trace-dir", "{tmp}/file.txt/traces"),
    ("coupling", "--p", "0.5,0.3,0.2", "--q", "0.2,0.3,0.5", "--k", "3", "--method", "kseq",
     "--delta", "nan"),
    ("coupling", "--p", "0.5,0.3,0.2", "--q", "0.2,0.3,0.5", "--k", "3", "--method", "kseq",
     "--delta", "inf"),
])
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv):
    (tmp_path / "file.txt").write_text("")
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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
